//go:build !race

// Allocation guards are compiled out under -race: the race detector's
// instrumentation perturbs allocation counts.

package rules

import "testing"

// TestLaneSearchMissDoesNotAllocate is the unit-test twin of
// BenchmarkLaneSearchMiss: searching Vec nodes where no lane combination
// matches allocates nothing.
func TestLaneSearchMissDoesNotAllocate(t *testing.T) {
	g, classes, searchers := laneMissFixture()
	for _, r := range searchers {
		if ms := r.SearchClasses(g, classes); len(ms) != 0 {
			t.Fatalf("%s matched the miss fixture: %d matches", r.Name(), len(ms))
		}
		if n := testing.AllocsPerRun(100, func() { r.SearchClasses(g, classes) }); n != 0 {
			t.Errorf("%s: %v allocations per missed search, want 0", r.Name(), n)
		}
	}
}
