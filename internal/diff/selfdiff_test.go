package diff_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/diff"
	"diospyros/internal/egraph"
)

// TestSelfDiffEmptyAcrossSuite is the tentpole's suite-wide invariant: every
// kernel of the 21-kernel suite, compiled with the journal armed, self-diffs
// empty — against itself and across -match-workers 1 vs 8. Any divergence
// here means either the determinism contract (DESIGN.md §9) broke or the
// diff is counting an informational field as semantic.
func TestSelfDiffEmptyAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	compileAt := func(k bench.Kernel, workers int) diff.Input {
		jr := egraph.NewJournal(0)
		res, err := diospyros.Compile(k.Lift(), diospyros.Options{
			Timeout:      time.Minute,
			MatchWorkers: workers,
			Journal:      jr,
		})
		if err != nil {
			t.Fatalf("%s (workers=%d): %v", k.ID, workers, err)
		}
		in := diff.Input{
			Label:  fmt.Sprintf("workers=%d", workers),
			Kernel: k.ID,
			Trace:  res.Trace,
		}
		if res.Primary().Program != nil {
			if _, sres, err := res.Run(k.Inputs(rand.New(rand.NewSource(1))), nil); err == nil {
				in.Profile = sres.Profile
				in.Cycles = sres.Cycles
			}
		}
		return in
	}
	for _, k := range bench.Suite() {
		serial := compileAt(k, 1)
		parallel := compileAt(k, 8)
		if d := diff.Compare(serial, serial); !d.Empty() {
			t.Errorf("%s: self-diff not empty:\n%s", k.ID, d.Format())
		}
		if d := diff.Compare(serial, parallel); !d.Empty() {
			t.Errorf("%s: workers=1 vs workers=8 diverged:\n%s", k.ID, d.Format())
		}
	}
}
