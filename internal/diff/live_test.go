package diff_test

import (
	"os"
	"strings"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/diff"
	"diospyros/internal/egraph"
)

// These tests exercise the diff package against real compilations of the
// matmul2x2 testdata kernel: the self-diff-empty invariant, the induced
// regressions the acceptance criteria pin (a nerfed cost weight must name
// the responsible op; a disabled rule family must name the missing rules),
// and the journal-truncation caveat on a real wrapped ring.

// compileMM compiles testdata/matmul2x2.dios with the journal armed (ring
// capacity ringCap; 0 means the default) and simulates it, returning the
// diff input and the journal.
func compileMM(t *testing.T, opts diospyros.Options, ringCap int) (diff.Input, *egraph.Journal) {
	t.Helper()
	src, err := os.ReadFile("../../testdata/matmul2x2.dios")
	if err != nil {
		t.Fatal(err)
	}
	jr := egraph.NewJournal(ringCap)
	opts.Journal = jr
	if opts.Timeout == 0 {
		opts.Timeout = time.Minute
	}
	res, err := diospyros.CompileSource(string(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	in := diff.Input{Label: "live", Kernel: res.Kernel.Name, Trace: res.Trace}
	if res.Primary().Program != nil {
		if _, sres, err := res.Run(res.Kernel.DeterministicInputs(1), nil); err == nil {
			in.Profile = sres.Profile
			in.Cycles = sres.Cycles
		}
	}
	return in, jr
}

// TestLiveSelfDiffEmpty checks the determinism anchor on real compiles: the
// same kernel compiled twice — and across match-worker counts — diffs empty.
func TestLiveSelfDiffEmpty(t *testing.T) {
	a, _ := compileMM(t, diospyros.Options{}, 0)
	b, _ := compileMM(t, diospyros.Options{}, 0)
	if d := diff.Compare(a, b); !d.Empty() {
		t.Errorf("identical compiles diverged:\n%s", d.Format())
	}
	p, _ := compileMM(t, diospyros.Options{MatchWorkers: 8}, 0)
	if d := diff.Compare(a, p); !d.Empty() {
		t.Errorf("workers=1 vs workers=8 diverged:\n%s", d.Format())
	}
}

// TestInducedCostRegressionNamesRule is the acceptance pin for the induced
// regression: nerfing VecMAC's cost weight must produce a non-empty diff
// that names VecMAC in the divergence list, the JSON artifact, and the HTML
// report.
func TestInducedCostRegressionNamesRule(t *testing.T) {
	base, _ := compileMM(t, diospyros.Options{}, 0)
	cur, _ := compileMM(t, diospyros.Options{OpCost: map[string]float64{"VecMAC": 50}}, 0)
	d := diff.Compare(base, cur)
	if d.Empty() {
		t.Fatal("nerfed VecMAC cost produced an empty diff")
	}
	var named bool
	for _, dv := range d.Divergences {
		if strings.Contains(dv.Detail, "VecMAC") {
			named = true
		}
	}
	if !named {
		t.Fatalf("no divergence names VecMAC:\n%s", d.Format())
	}
	raw, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "VecMAC") || !strings.Contains(string(raw), diff.Schema) {
		t.Error("JSON artifact does not name VecMAC under the diff schema")
	}
	page, err := diff.Report(d, base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "VecMAC") {
		t.Error("HTML report does not name VecMAC")
	}
	// A cost-weight change leaves the search untouched: the e-graph and the
	// rule attribution must agree, only extraction-side sections may differ.
	for _, dv := range d.Divergences {
		switch dv.Kind {
		case "rule", "saturation", "stop-reason", "ban":
			t.Errorf("cost-only change produced a search divergence: %+v", dv)
		}
	}
}

// TestInducedRuleDisableDivergence pins the other induced-regression lever:
// disabling the vectorization rules must surface as rules running only in
// the baseline.
func TestInducedRuleDisableDivergence(t *testing.T) {
	base, _ := compileMM(t, diospyros.Options{}, 0)
	cur, _ := compileMM(t, diospyros.Options{DisableVectorRules: true}, 0)
	d := diff.Compare(base, cur)
	if d.Empty() {
		t.Fatal("disabling vector rules produced an empty diff")
	}
	var baselineOnly bool
	for _, r := range d.Rules {
		if r.OnlyIn == "baseline" {
			baselineOnly = true
		}
	}
	if !baselineOnly {
		t.Errorf("no rule attributed to the baseline only:\n%s", d.Format())
	}
}

// TestJournalTruncationRealRun wraps a real compile's journal ring and
// checks the drop count flows end to end: Journal.Dropped into the trace's
// EventsDropped and from there into the diff's Truncation caveat.
func TestJournalTruncationRealRun(t *testing.T) {
	full, _ := compileMM(t, diospyros.Options{}, 0)
	short, jr := compileMM(t, diospyros.Options{}, 8)
	if jr.Dropped() == 0 {
		t.Fatalf("ring of 8 evicted nothing (total %d events); enlarge the kernel", jr.Total())
	}
	if short.Trace.Search == nil || short.Trace.Search.EventsDropped != jr.Dropped() {
		t.Fatalf("trace EventsDropped = %+v, want %d", short.Trace.Search, jr.Dropped())
	}
	d := diff.Compare(full, short)
	if d.Truncation == nil || d.Truncation.CurDropped != jr.Dropped() {
		t.Fatalf("truncation = %+v, want CurDropped %d", d.Truncation, jr.Dropped())
	}
	if !strings.Contains(d.Format(), "incomplete window") {
		t.Error("Format lacks the truncation caveat")
	}
}
