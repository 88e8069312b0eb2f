package bench

import (
	"strings"
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/egraph"
)

// journalRuleCounts aggregates the flight recorder's per-rule attribution
// into a comparable map, ignoring Duration (the only field the determinism
// contract allows to differ across worker counts).
func journalRuleCounts(jr *egraph.Journal) map[string][3]int {
	out := map[string][3]int{}
	for _, ev := range jr.Events() {
		if ev.Kind != egraph.JournalRule {
			continue
		}
		k := ev.Rule
		c := out[k]
		c[0] += ev.Matches
		c[1] += ev.Applied
		c[2] += ev.NewNodes
		out[k] = c
	}
	return out
}

// TestMatchWorkerParityAcrossSuite is the tentpole acceptance criterion:
// every kernel of the 21-kernel suite compiles to byte-identical C, the
// same extraction cost, the same saturation statistics, and the same
// journal rule attribution at -match-workers=1 and =8.
func TestMatchWorkerParityAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite run")
	}
	compileAt := func(k Kernel, workers int) (*diospyros.Result, *egraph.Journal) {
		jr := egraph.NewJournal(0)
		res, err := diospyros.Compile(k.Lift(), diospyros.Options{
			Timeout:      time.Minute,
			MatchWorkers: workers,
			Journal:      jr,
		})
		if err != nil {
			t.Fatalf("%s (workers=%d): %v", k.ID, workers, err)
		}
		return res, jr
	}
	for _, k := range Suite() {
		serial, jrSerial := compileAt(k, 1)
		parallel, jrParallel := compileAt(k, 8)
		if serial.Primary().C != parallel.Primary().C {
			t.Errorf("%s: C output differs between workers=1 and workers=8", k.ID)
		}
		if serial.Primary().Cost != parallel.Primary().Cost {
			t.Errorf("%s: cost %v vs %v", k.ID, serial.Primary().Cost, parallel.Primary().Cost)
		}
		s, p := serial.Saturation, parallel.Saturation
		if s.Nodes != p.Nodes || s.Classes != p.Classes ||
			s.Iterations != p.Iterations || s.Applied != p.Applied || s.Reason != p.Reason {
			t.Errorf("%s: saturation stats diverged:\nserial   %+v\nparallel %+v", k.ID, s, p)
		}
		cs, cp := journalRuleCounts(jrSerial), journalRuleCounts(jrParallel)
		if len(cs) != len(cp) {
			t.Errorf("%s: journal rule sets differ: %d vs %d rules", k.ID, len(cs), len(cp))
			continue
		}
		for rule, sc := range cs {
			if pc, ok := cp[rule]; !ok || pc != sc {
				t.Errorf("%s: rule %q attribution %v vs %v", k.ID, rule, sc, cp[rule])
			}
		}
	}
}

// TestMatchSweepReportsSpeedup runs the diosbench sweep machinery on one
// small kernel and checks the table plumbing: per-worker saturate times,
// a baseline speedup of exactly 1.0, and the built-in determinism check.
func TestMatchSweepReportsSpeedup(t *testing.T) {
	rows, err := MatchSweep(MSOptions{
		Only:    "MatMul 2x2",
		Workers: []int{1, 2},
		Repeat:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("sweep selected no kernels")
	}
	r := rows[0]
	if len(r.Saturate) != 2 || r.Saturate[0] <= 0 || r.Saturate[1] <= 0 {
		t.Fatalf("saturate durations not recorded: %v", r.Saturate)
	}
	if r.Speedup[0] != 1.0 {
		t.Errorf("baseline speedup = %v, want 1.0", r.Speedup[0])
	}
	out := FormatMatchSweep(rows)
	for _, want := range []string{"N=1", "N=2", "spdup", r.Kernel.ID} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep table missing %q:\n%s", want, out)
		}
	}
}
