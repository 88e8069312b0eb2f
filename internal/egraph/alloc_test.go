//go:build !race

// Allocation guards are compiled out under -race: the race detector's
// instrumentation perturbs allocation counts.

package egraph

import "testing"

// TestSearchPatternMissDoesNotAllocate is the unit-test twin of
// BenchmarkSearchPatternMiss: a compiled-pattern search that finds nothing
// allocates nothing.
func TestSearchPatternMissDoesNotAllocate(t *testing.T) {
	g, classes, miss := patternMissFixture()
	if ms := miss.SearchClasses(g, classes); len(ms) != 0 {
		t.Fatalf("miss pattern matched %d times", len(ms))
	}
	if n := testing.AllocsPerRun(100, func() { miss.SearchClasses(g, classes) }); n != 0 {
		t.Errorf("%v allocations per missed search, want 0", n)
	}
}
