// Command diosdiff compares two compilations of the same kernel and
// attributes the delta — the regression-forensics companion to diosbench:
//
//	diosdiff baseline.json current.json            # two saved artifacts
//	diosdiff -kernel "MatMul 2x2" base.json cur.json
//	diosdiff -compile kernel.dios -cur-opts cost:VecMAC=50
//	                                               # two live compiles
//	diosdiff -json d.json -html d.html base.json cur.json
//
// Artifacts are compile trace JSONs (diospyros -json) or per-kernel bench
// arrays (diosbench -json / -bench-json); stale artifacts without the
// diospyros/trace/v1 schema stamp are rejected. In -compile mode the same
// kernel source is compiled twice — under -base-opts and -cur-opts — with
// the search journal armed, then simulated, and the two flight records are
// diffed; option tokens are comma-separated:
//
//	no-vector | ac | backoff | target=NAME | timeout=DUR | node-limit=N |
//	match-workers=N | cost:OP=V
//
// target=NAME may repeat: each appends to the compile's target list, and
// the first is the primary target the simulation runs.
//
// Like diff(1), the exit status distinguishes outcomes: 0 when the runs
// are equivalent, 1 when they diverge, 2 on usage or artifact errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	diospyros "diospyros"
	"diospyros/internal/buildinfo"
	"diospyros/internal/diff"
	"diospyros/internal/egraph"
)

func main() {
	var (
		compile  = flag.String("compile", "", "kernel source to compile twice (under -base-opts and -cur-opts) instead of reading artifacts")
		baseOpts = flag.String("base-opts", "", "comma-separated option tokens for the baseline compile (see package doc)")
		curOpts  = flag.String("cur-opts", "", "comma-separated option tokens for the current compile")
		kernel   = flag.String("kernel", "", "diff only this kernel ID (artifacts holding many kernels)")
		jsonOut  = flag.String("json", "", "write the diospyros/diff/v1 JSON to this file (- for stdout)")
		htmlOut  = flag.String("html", "", "write the side-by-side HTML report to this file")
		seed     = flag.Int64("seed", 1, "random seed for the -compile mode simulation inputs")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Summary("diosdiff"))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var pairs []pair
	var err error
	switch {
	case *compile != "":
		if flag.NArg() != 0 {
			usage("-compile takes no positional artifacts")
		}
		pairs, err = compilePair(ctx, *compile, *baseOpts, *curOpts, *seed)
	case flag.NArg() == 2:
		if *baseOpts != "" || *curOpts != "" {
			usage("-base-opts/-cur-opts require -compile")
		}
		pairs, err = loadPairs(flag.Arg(0), flag.Arg(1), *kernel)
	default:
		usage("expected two artifact files, or -compile kernel.dios")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "diosdiff:", err)
		os.Exit(2)
	}

	divergent := false
	var diffs []*diff.Diff
	for _, p := range pairs {
		d := diff.Compare(p.base, p.cur)
		diffs = append(diffs, d)
		if !d.Empty() {
			divergent = true
		}
		if *jsonOut != "-" { // text verdict, unless JSON owns stdout
			fmt.Print(d.Format())
		}
	}

	if *jsonOut != "" {
		raw, err := marshalDiffs(diffs)
		if err != nil {
			fatal(err)
		}
		if *jsonOut == "-" {
			fmt.Println(string(raw))
		} else if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			fatal(err)
		}
	}
	if *htmlOut != "" {
		if len(pairs) != 1 {
			fmt.Fprintln(os.Stderr, "diosdiff: -html needs exactly one kernel; narrow with -kernel")
			os.Exit(2)
		}
		page, err := diff.Report(diffs[0], pairs[0].base, pairs[0].cur)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*htmlOut, page, 0o644); err != nil {
			fatal(err)
		}
	}

	if divergent {
		os.Exit(1)
	}
}

// pair is one kernel's two sides, ready to diff.
type pair struct{ base, cur diff.Input }

// loadPairs reads both artifacts and aligns them kernel by kernel: the
// named kernel when -kernel is given, otherwise every kernel the two
// artifacts share (a bare trace artifact matches whatever the other side
// holds exactly one of).
func loadPairs(basePath, curPath, kernel string) ([]pair, error) {
	base, err := loadFile(basePath)
	if err != nil {
		return nil, err
	}
	cur, err := loadFile(curPath)
	if err != nil {
		return nil, err
	}
	if kernel != "" {
		b, ok := base.Find(kernel)
		if !ok {
			return nil, fmt.Errorf("%s: no kernel %q", base.Label, kernel)
		}
		c, ok := cur.Find(kernel)
		if !ok {
			return nil, fmt.Errorf("%s: no kernel %q", cur.Label, kernel)
		}
		return []pair{{b, c}}, nil
	}
	// Two bare traces pair directly.
	if len(base.Inputs) == 1 && len(cur.Inputs) == 1 {
		return []pair{{base.Inputs[0], cur.Inputs[0]}}, nil
	}
	var pairs []pair
	for _, b := range base.Inputs {
		if c, ok := cur.Find(b.Kernel); ok {
			pairs = append(pairs, pair{b, c})
		}
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("artifacts share no kernels (%s: %v; %s: %v)",
			base.Label, base.Kernels(), cur.Label, cur.Kernels())
	}
	return pairs, nil
}

// loadFile reads and parses one artifact file.
func loadFile(path string) (*diff.Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return diff.LoadArtifact(path, data)
}

// compilePair compiles the kernel source twice — under the baseline and
// current option tokens, journal armed — simulates both, and returns the
// single resulting pair.
func compilePair(ctx context.Context, srcPath, baseOpts, curOpts string, seed int64) ([]pair, error) {
	src, err := os.ReadFile(srcPath)
	if err != nil {
		return nil, err
	}
	base, err := compileSide(ctx, string(src), "base["+baseOpts+"]", baseOpts, seed)
	if err != nil {
		return nil, fmt.Errorf("baseline compile: %w", err)
	}
	cur, err := compileSide(ctx, string(src), "cur["+curOpts+"]", curOpts, seed)
	if err != nil {
		return nil, fmt.Errorf("current compile: %w", err)
	}
	return []pair{{base, cur}}, nil
}

// compileSide runs one journal-armed compile + simulation and folds the
// result into a diff.Input.
func compileSide(ctx context.Context, src, label, tokens string, seed int64) (diff.Input, error) {
	opts, err := parseOpts(tokens)
	if err != nil {
		return diff.Input{}, err
	}
	opts.Journal = egraph.NewJournal(0)
	res, err := diospyros.CompileSourceContext(ctx, src, opts)
	if err != nil {
		return diff.Input{}, err
	}
	in := diff.Input{Label: label, Kernel: res.Kernel.Name, Trace: res.Trace}
	if res.Primary().Program != nil {
		if _, sres, err := res.Run(res.Kernel.DeterministicInputs(seed), nil); err == nil {
			in.Profile = sres.Profile
			in.Cycles = sres.Cycles
		}
	}
	return in, nil
}

// parseOpts turns the comma-separated option tokens into compile Options.
func parseOpts(tokens string) (diospyros.Options, error) {
	var opts diospyros.Options
	for _, tok := range strings.Split(tokens, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, hasVal := strings.Cut(tok, "=")
		switch {
		case tok == "no-vector":
			opts.DisableVectorRules = true
		case tok == "ac":
			opts.EnableAC = true
		case tok == "backoff":
			opts.UseBackoff = true
		case key == "target" && hasVal:
			opts.Targets = append(opts.Targets, val)
		case key == "timeout" && hasVal:
			d, err := time.ParseDuration(val)
			if err != nil {
				return opts, fmt.Errorf("bad timeout %q", val)
			}
			opts.Timeout = d
		case key == "node-limit" && hasVal:
			n, err := strconv.Atoi(val)
			if err != nil {
				return opts, fmt.Errorf("bad node-limit %q", val)
			}
			opts.NodeLimit = n
		case key == "match-workers" && hasVal:
			n, err := strconv.Atoi(val)
			if err != nil {
				return opts, fmt.Errorf("bad match-workers %q", val)
			}
			opts.MatchWorkers = n
		case strings.HasPrefix(key, "cost:") && hasVal:
			op := strings.TrimPrefix(key, "cost:")
			v, err := strconv.ParseFloat(val, 64)
			if err != nil || op == "" {
				return opts, fmt.Errorf("bad cost override %q", tok)
			}
			if opts.OpCost == nil {
				opts.OpCost = map[string]float64{}
			}
			opts.OpCost[op] = v
		default:
			return opts, fmt.Errorf("unknown option token %q", tok)
		}
	}
	return opts, nil
}

// marshalDiffs renders one diff as an object, several as an array.
func marshalDiffs(diffs []*diff.Diff) ([]byte, error) {
	if len(diffs) == 1 {
		return diffs[0].JSON()
	}
	return json.MarshalIndent(diffs, "", "  ")
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "diosdiff:", msg)
	fmt.Fprintln(os.Stderr, "usage: diosdiff [flags] baseline.json current.json")
	fmt.Fprintln(os.Stderr, "       diosdiff [flags] -compile kernel.dios [-base-opts t,t] [-cur-opts t,t]")
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diosdiff:", err)
	os.Exit(1)
}
