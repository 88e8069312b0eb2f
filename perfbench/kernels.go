package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"diospyros/internal/bench"
	"diospyros/internal/frontend"
	"diospyros/internal/kernel"
	"diospyros/internal/kernels"
)

// compileCase is one kernel of a compile workload: what the compiler is
// given, the seed-drawn simulation inputs, and the outputs those inputs
// must produce according to a reference that is not the compiler.
type compileCase struct {
	slug   string         // metric row name: kernel.<slug>.compile_ms
	source string         // text-language source; "" for builder kernels
	lifted *kernel.Lifted // builder kernels only (the lift stage is bypassed)
	inputs map[string][]float64
	want   map[string][]float64
	anchor *anchorRow // committed expectations, when the kernel has them
}

// anchorRow is a kernel's row of the committed BENCH_PR7.json baseline:
// simulated fg3lite-4 cycles and peak e-graph bytes, both deterministic.
type anchorRow struct {
	ID              string `json:"id"`
	Cycles          int64  `json:"cycles"`
	PeakEGraphBytes int64  `json:"peak_egraph_bytes"`
}

// anchorFile is the committed baseline the suite-serial counts must equal.
const anchorFile = "BENCH_PR7.json"

// loadAnchors reads the baseline rows by kernel ID. A missing file yields
// no anchors (the repository may have retired the baseline); a malformed
// one is an error.
func loadAnchors(root string) (map[string]*anchorRow, error) {
	data, err := os.ReadFile(filepath.Join(root, anchorFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rows []*anchorRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", anchorFile, err)
	}
	out := make(map[string]*anchorRow, len(rows))
	for _, r := range rows {
		out[r.ID] = r
	}
	return out, nil
}

// suiteCases builds the paper's 21 Table-1 kernels through the builder
// API, with inputs drawn from rng and outputs from the host references in
// internal/kernels.
func suiteCases(rng *rand.Rand, anchors map[string]*anchorRow) ([]*compileCase, error) {
	var out []*compileCase
	for _, k := range bench.Suite() {
		inputs := k.Inputs(rng)
		want, err := suiteReference(k, inputs)
		if err != nil {
			return nil, err
		}
		out = append(out, &compileCase{
			slug:   slugify(k.ID),
			lifted: k.Lift(),
			inputs: inputs,
			want:   want,
			anchor: anchors[k.ID],
		})
	}
	return out, nil
}

// suiteReference computes a suite kernel's outputs with the plain float64
// implementations in internal/kernels, reading the sizes off the kernel ID.
func suiteReference(k bench.Kernel, in map[string][]float64) (map[string][]float64, error) {
	switch k.Family {
	case "2DConv":
		var ir, ic, fr, fc int
		if _, err := fmt.Sscanf(k.ID, "2DConv %dx%d %dx%d", &ir, &ic, &fr, &fc); err != nil {
			return nil, fmt.Errorf("%s: %w", k.ID, err)
		}
		return map[string][]float64{"o": kernels.Conv2DRef(ir, ic, fr, fc, in["i"], in["f"])}, nil
	case "MatMul":
		var m, n, n2, p int
		if _, err := fmt.Sscanf(k.ID, "MatMul %dx%d %dx%d", &m, &n, &n2, &p); err != nil {
			return nil, fmt.Errorf("%s: %w", k.ID, err)
		}
		return map[string][]float64{"c": kernels.MatMulRef(m, n, p, in["a"], in["b"])}, nil
	case "QProd":
		rq, rt := kernels.QProdRef(in["aq"], in["at"], in["bq"], in["bt"])
		return map[string][]float64{"rq": rq, "rt": rt}, nil
	case "QRDecomp":
		var n int
		if _, err := fmt.Sscanf(k.ID, "QRDecomp %dx", &n); err != nil {
			return nil, fmt.Errorf("%s: %w", k.ID, err)
		}
		q, r := kernels.QRDecompRef(n, in["a"])
		return map[string][]float64{"q": q, "r": r}, nil
	}
	return nil, fmt.Errorf("%s: no host reference for family %q", k.ID, k.Family)
}

// sourceFiles names the testdata/*.dios kernels of source-3target. The
// list is pinned, so adding a kernel to testdata does not change the
// workload.
var sourceFiles = []string{"conv3x5", "dotprod8", "fir8", "matmul2x2", "matmul2x3", "qr3"}

// sourceCases returns the testdata kernels followed by the generated
// kernels, each with seed-drawn inputs and outputs from the frontend's
// reference interpreter.
func sourceCases(root string, rng *rand.Rand) ([]*compileCase, error) {
	var out []*compileCase
	for _, name := range sourceFiles {
		src, err := os.ReadFile(filepath.Join(root, "testdata", name+".dios"))
		if err != nil {
			return nil, err
		}
		c, err := interpCase(name, string(src), rng)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	for _, g := range generatedKernels(rng) {
		c, err := interpCase(g.slug, g.source, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// sourceSlugs lists source-3target's kernel row names in case order.
func sourceSlugs() []string {
	out := append([]string(nil), sourceFiles...)
	for _, g := range generatedKernels(rand.New(rand.NewSource(0))) {
		out = append(out, g.slug)
	}
	return out
}

// interpCase parses a text-language kernel, draws its inputs and runs the
// reference interpreter for the expected outputs.
func interpCase(slug, src string, rng *rand.Rand) (*compileCase, error) {
	k, err := frontend.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", slug, err)
	}
	inputs := map[string][]float64{}
	for _, p := range k.Params {
		inputs[p.Name] = drawSlice(rng, p.Len())
	}
	want, err := frontend.Interp(k, inputs, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: reference interpreter: %w", slug, err)
	}
	return &compileCase{slug: slug, source: src, inputs: inputs, want: want}, nil
}

func drawSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.Float64()*4 - 2
	}
	return s
}

type generated struct{ slug, source string }

// generatedKernels draws five text-language kernels in the suite's small
// size range: matmul, matrix-vector, conv, fir and dot, at fixed sizes.
// The seed draws the identifiers and a nonzero bias added to every output,
// so each seed compiles different source text while the work per compile,
// and with it every end-to-end metric, stays the same across seeds. With
// the six testdata kernels the workload has an odd kernel count, so its
// median compile latency falls inside one kernel's samples rather than on
// the boundary between two kernels'.
func generatedKernels(rng *rand.Rand) []generated {
	names := rng.Perm(len(identPool))
	ident := func(i int) string { return identPool[names[i]] }
	bias := func() string { return fmt.Sprintf("0.%d", 1+rng.Intn(9)) }
	tag := rng.Intn(1 << 16)
	return []generated{
		{"gen-matmul", fmt.Sprintf(`kernel gen_matmul_%04x(%[2]s[3][4], %[3]s[4][2]) -> (%[4]s[3][2]) {
    for i in 0..3 {
        for j in 0..2 {
            %[4]s[i][j] = %[5]s;
            for k in 0..4 {
                %[4]s[i][j] = %[4]s[i][j] + %[2]s[i][k] * %[3]s[k][j];
            }
        }
    }
}
`, tag, ident(0), ident(1), ident(2), bias())},
		{"gen-matvec", fmt.Sprintf(`kernel gen_matvec_%04x(%[2]s[4][4], %[3]s[4]) -> (%[4]s[4]) {
    for i in 0..4 {
        %[4]s[i] = %[5]s;
        for k in 0..4 {
            %[4]s[i] = %[4]s[i] + %[2]s[i][k] * %[3]s[k];
        }
    }
}
`, tag, ident(12), ident(13), ident(14), bias())},
		{"gen-conv", fmt.Sprintf(`kernel gen_conv_%04x(%[2]s[4][4], %[3]s[2][2]) -> (%[4]s[5][5]) {
    for r in 0..5 {
        for c in 0..5 {
            %[4]s[r][c] = %[5]s;
            for fr in 0..2 {
                for fc in 0..2 {
                    let ir = r - fr;
                    let ic = c - fc;
                    if ir >= 0 && ir < 4 && ic >= 0 && ic < 4 {
                        %[4]s[r][c] = %[4]s[r][c] + %[2]s[ir][ic] * %[3]s[fr][fc];
                    }
                }
            }
        }
    }
}
`, tag, ident(3), ident(4), ident(5), bias())},
		{"gen-fir", fmt.Sprintf(`kernel gen_fir_%04x(%[2]s[12], %[3]s[4]) -> (%[4]s[12]) {
    for n in 0..12 {
        %[4]s[n] = %[5]s;
        for k in 0..4 {
            let j = n - k;
            if j >= 0 {
                %[4]s[n] = %[4]s[n] + %[3]s[k] * %[2]s[j];
            }
        }
    }
}
`, tag, ident(6), ident(7), ident(8), bias())},
		{"gen-dot", fmt.Sprintf(`kernel gen_dot_%04x(%[2]s[12], %[3]s[12]) -> (%[4]s[1]) {
    %[4]s[0] = %[5]s;
    for i in 0..12 {
        %[4]s[0] = %[4]s[0] + %[2]s[i] * %[3]s[i];
    }
}
`, tag, ident(9), ident(10), ident(11), bias())},
	}
}

// identPool holds array names for generated kernels; none is a keyword or
// a loop variable of the templates. All have the same length, so the
// e-graph's symbol bytes, and with them egraph_mb, do not depend on the
// seed.
var identPool = []string{
	"as", "bs", "cs", "ds", "es", "fs", "gs", "hs", "ks",
	"ms", "ps", "qs", "us", "vs", "ws", "xs", "ys", "zs",
}

// slugify turns a kernel ID such as "2DConv 16x16 4x4" or "QProd 4,3,4,3"
// into a metric-name component: "2dconv-16x16-4x4", "qprod-4-3-4-3".
func slugify(id string) string {
	return strings.ToLower(strings.NewReplacer(" ", "-", ",", "-").Replace(id))
}
