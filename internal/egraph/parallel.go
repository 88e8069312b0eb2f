package egraph

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The match phase. Equality saturation alternates a read-only
// search phase (every rule matched against every e-class) with a mutating
// apply/rebuild phase. The search phase dominates compile time on large
// kernels and is embarrassingly parallel: this file shards the canonical
// e-class list across a bounded worker pool, collects matches into
// per-(rule, shard) buffers, and merges them in canonical (rule, e-class
// ID) order, so the runner's apply phase — and therefore the extracted
// program, the Journal, and rewrite provenance — is bit-for-bit identical
// at any worker count. There is one code path: a single worker runs the
// same tasks on the calling goroutine.
//
// Safety rests on two invariants, both enforced by the runner:
//
//  1. Searchers never mutate the graph (the Rewrite contract). All
//     built-in rules defer node creation to Apply.
//  2. Find performs no union-find writes once paths are compressed. The
//     match phase calls CompressPaths serially before fanning out, after
//     which every chain has length ≤ 1 and Find's path-halving never fires.

// ShardedRewrite is optionally implemented by rewrites whose search can be
// restricted to a subset of e-classes. The runner uses it to shard the
// match phase across workers: each shard is a contiguous run of the
// canonical class list (sorted by ID), and the per-shard results are
// concatenated in shard order, so implementations must derive matches from
// the given classes only, in the order given. SearchClasses must be
// read-only and safe for concurrent use with other searchers.
//
// Rewrites that do not implement the interface still participate in
// parallel matching — each one runs as a single whole-graph Search task —
// but cannot be split across workers.
type ShardedRewrite interface {
	Rewrite
	// SearchClasses returns the rewrite's matches within the given
	// canonical classes, in class order.
	SearchClasses(g *EGraph, classes []*EClass) []Match
}

// SearchClasses restricts the syntactic pattern search to the given
// classes, making every parsed rewrite shardable.
func (r *patternRewrite) SearchClasses(g *EGraph, classes []*EClass) []Match {
	return r.prog.search(g, classes)
}

// DefaultMatchWorkers is the worker-pool size used when Limits.MatchWorkers
// is zero: one worker per available CPU.
func DefaultMatchWorkers() int { return runtime.GOMAXPROCS(0) }

// matchShardMin is the smallest shard handed to one match task. Shards
// cheaper than this cost more in scheduling than they win in parallelism.
const matchShardMin = 32

// matchParallelMinClasses is the class count below which the runner hands
// the match phase a single worker: smaller graphs search faster on the
// calling goroutine than a pool spins up. The cutover is behavior-neutral —
// results are identical at every worker count.
const matchParallelMinClasses = 64

// ruleMatches is one rule's merged search result for one iteration.
type ruleMatches struct {
	rule    Rewrite
	matches []Match
	// searchDur sums the rule's per-shard search times — attributed CPU
	// time, not wall time (shards run concurrently). The iteration wall
	// time in the Journal and the saturate stage span stay wall-clock.
	searchDur time.Duration
}

// matchSnapshot is the match phase's view of one iteration's graph: the
// canonical class list and the head-op index over it. The runner keeps one
// for a whole run and searchRules rebuilds it in place each iteration, so
// the slices are reused rather than allocated anew. Reuse is race-free:
// the snapshot is rebuilt serially before the fan-out, and no Match refers
// to it.
type matchSnapshot struct {
	classes []*EClass
	ix      ClassIndex
}

// searchRules runs the read-only match phase for rules over g on at most
// workers goroutines, returning per-rule matches in rule order; within each
// rule, matches appear in canonical e-class order, so the result is the
// same at every worker count. The caller must pass only rules eligible to
// search this iteration (bans already filtered). With one worker every rule
// is a single task and the tasks run on the calling goroutine.
//
// cancelled reports that ctx fired before the match phase returned (it is
// polled between tasks, so the remaining tasks are skipped); results are
// discarded and the caller stops the run. snap is the caller's reusable
// snapshot buffer.
func searchRules(ctx context.Context, g *EGraph, rules []Rewrite, workers int, snap *matchSnapshot) (out []ruleMatches, cancelled bool) {
	// Serial prologue: after this, Find is write-free until the next Union.
	g.CompressPaths()
	snap.classes = g.canonicalClasses(snap.classes)
	snap.ix.reset(snap.classes)
	classes, ix := snap.classes, &snap.ix

	// Shard granularity is derived from the full class count, not per-rule
	// candidate counts, so the cost of one shard is comparable across rules
	// regardless of how selective their head-op filters are. One worker
	// gains nothing from splitting, so its shards span every candidate.
	shardSize := len(classes)
	if workers > 1 {
		shardSize /= workers * 4
	}
	shardSize = max(shardSize, matchShardMin)

	// Tasks are appended rule by rule, shards in class order, and each
	// task's result lands in its own slot.
	type task struct {
		rule    int
		classes []*EClass // the shard a ShardedRewrite scans
		matches []Match
		dur     time.Duration
	}
	tasks := make([]task, 0, len(rules))
	for i, r := range rules {
		if _, ok := r.(ShardedRewrite); !ok {
			tasks = append(tasks, task{rule: i}) // one whole-graph Search
			continue
		}
		// Shardable rules scan only their head-op candidates, split into
		// contiguous runs of the (ID-ordered) candidate list; the
		// rule-major, class-ordered merge below makes the merged match
		// lists independent of where the shard boundaries fall.
		cand := ix.Candidates(r)
		for lo := 0; lo == 0 || lo < len(cand); lo += shardSize { // ≥ 1 task
			tasks = append(tasks, task{rule: i, classes: cand[lo:min(lo+shardSize, len(cand))]})
		}
	}

	var next atomic.Int64
	done := ctx.Done()
	work := func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			t := &tasks[i]
			start := time.Now()
			if sr, ok := rules[t.rule].(ShardedRewrite); ok {
				t.matches = sr.SearchClasses(g, t.classes)
			} else {
				t.matches = rules[t.rule].Search(g)
			}
			t.dur = time.Since(start)
		}
	}

	if n := min(workers, len(tasks)); n <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if ctx.Err() != nil {
		return nil, true
	}

	// Deterministic merge: rule order, then shard (= canonical class) order.
	// A single-shard result is used as is.
	out = make([]ruleMatches, len(rules))
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].rule == tasks[lo].rule {
			hi++
		}
		rm := ruleMatches{rule: rules[tasks[lo].rule], matches: tasks[lo].matches, searchDur: tasks[lo].dur}
		if hi-lo > 1 {
			total := 0
			for _, t := range tasks[lo:hi] {
				total += len(t.matches)
			}
			rm.matches, rm.searchDur = make([]Match, 0, total), 0
			for _, t := range tasks[lo:hi] {
				rm.matches = append(rm.matches, t.matches...)
				rm.searchDur += t.dur
			}
		}
		out[tasks[lo].rule] = rm
		lo = hi
	}
	return out, false
}
