package diospyros_test

import (
	"testing"
	"time"

	diospyros "diospyros"
	"diospyros/internal/bench"
	"diospyros/internal/egraph"
)

// costTrajectory compiles a suite kernel with the search journal armed and
// returns the per-iteration best-cost samples of the root and the result.
func costTrajectory(t *testing.T, id string) ([]egraph.JournalEvent, *diospyros.Result) {
	t.Helper()
	for _, k := range bench.Suite() {
		if k.ID != id {
			continue
		}
		jr := egraph.NewJournal(0)
		res, err := diospyros.Compile(k.Lift(), diospyros.Options{Journal: jr, Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		var costs []egraph.JournalEvent
		for _, ev := range jr.Events() {
			if ev.Kind == egraph.JournalCost {
				costs = append(costs, ev)
			}
		}
		return costs, res
	}
	t.Fatalf("no suite kernel %q", id)
	return nil, nil
}

// TestJournalCostSamplesMatchExtraction pins the journal's best-cost
// trajectory on one suite kernel. The sampler runs a full extraction after
// every saturation iteration, so these are the per-iteration winners of
// the relaxation: the values were recorded with the whole-graph relaxation
// loop and must not move when extraction gets faster. The last sample is
// taken on the final graph with the extract stage's model, so it must equal
// the extracted program's cost.
func TestJournalCostSamplesMatchExtraction(t *testing.T) {
	want := []struct {
		iteration int
		cost      float64
	}{
		{1, 92.82000000000001}, {2, 92.82000000000001}, {3, 75.94},
		{4, 72.42}, {5, 51.66000000000001}, {6, 51.66000000000001},
	}
	costs, res := costTrajectory(t, "2DConv 3x3 2x2")
	if len(costs) != len(want) {
		t.Fatalf("%d cost samples, want %d: %+v", len(costs), len(want), costs)
	}
	for i, ev := range costs {
		if ev.Iteration != want[i].iteration || ev.Cost != want[i].cost {
			t.Errorf("sample %d: iteration %d cost %v, want iteration %d cost %v",
				i, ev.Iteration, ev.Cost, want[i].iteration, want[i].cost)
		}
	}
	if last := costs[len(costs)-1].Cost; last != res.Primary().Cost {
		t.Errorf("last sampled cost %v, extracted cost %v", last, res.Primary().Cost)
	}
}
