// Package extract selects the cheapest program represented by an e-graph
// under a cost model (paper §3.4). Extraction is a Bellman-style relaxation
// to a fixpoint on dense, ClassID-indexed state: classes are visited in
// increasing ID order, and after the first pass only classes with a child
// whose best choice improved since their last visit are re-priced. The
// sequence of updates, and so every winner, is exactly that of relaxing
// the whole graph each pass (DESIGN.md §5.1). It terminates because the
// cost model is strictly monotonic.
package extract

import (
	"fmt"
	"math"
	"math/bits"

	"diospyros/internal/cost"
	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// Choice records the selected implementation of one e-class.
type Choice struct {
	Cost float64
	Node egraph.ENode
	ok   bool
}

// Extractor computes best choices for every class of a graph.
type Extractor struct {
	g     *egraph.EGraph
	model cost.Model
	// best is indexed by canonical ClassID; ok marks the classes that have
	// a finite-cost implementation.
	best []Choice
	// buf is the children scratch handed to the model by price. The model
	// may read it only during the call (cost.Model).
	buf []cost.ChildInfo
}

// New prepares an extractor and runs the fixpoint computation. Models that
// price by symbol payload (cost.NeedsSyms, e.g. per-function overrides)
// are bound to this graph's intern table before any node is priced.
func New(g *egraph.EGraph, model cost.Model) *Extractor {
	if ns, ok := model.(cost.NeedsSyms); ok {
		model = ns.WithSyms(g.SymName)
	}
	ex := &Extractor{g: g, model: model}
	ex.run()
	return ex
}

// run relaxes best choices until none improves. Costs only decrease, and
// each node's own cost is strictly positive, so cyclic choices can never
// undercut acyclic ones and the loop terminates.
//
// Each pass visits the classes in cur in increasing ID order and prices
// every node of a visited class against the children's current best, so a
// class's own update is visible to its later nodes. When a class improves,
// its users with a higher ID join this pass (cur) and the rest, itself
// included, join the next one. A class left out of both has no child that
// changed since its last visit, so re-pricing it would reproduce the same
// totals, none strictly below its best: skipping it changes nothing.
func (ex *Extractor) run() {
	classes := ex.g.CanonicalClasses()
	if len(classes) == 0 {
		return
	}
	n := int(classes[len(classes)-1].ID) + 1
	ex.best = make([]Choice, n)
	byID := make([]*egraph.EClass, n)
	for _, cls := range classes {
		byID[cls.ID] = cls
	}
	start, users := ex.userIndex(classes, n)
	cur, next := newBitset(n), newBitset(n)
	for _, cls := range classes {
		cur.set(cls.ID)
	}
	for {
		more := false
		for w := range cur {
			for cur[w] != 0 {
				b := bits.TrailingZeros64(cur[w])
				cur[w] &^= 1 << b
				id := egraph.ClassID(w*64 + b)
				if !ex.relax(byID[id]) {
					continue
				}
				for _, u := range users[start[id]:start[id+1]] {
					if u > id {
						cur.set(u)
					} else {
						next.set(u)
						more = true
					}
				}
			}
		}
		if !more {
			return
		}
		cur, next = next, cur
	}
}

// relax prices every node of cls in order, keeping the first strictly
// cheapest, and reports whether the class's best choice changed.
func (ex *Extractor) relax(cls *egraph.EClass) bool {
	b := &ex.best[cls.ID]
	changed := false
	for _, n := range cls.Nodes {
		c, _, ok := ex.price(n)
		if ok && (!b.ok || c < b.Cost) {
			*b = Choice{Cost: c, Node: n, ok: true}
			changed = true
		}
	}
	return changed
}

// userIndex builds the parent index in compressed form: the users of class
// c, each listed once, are users[start[c]:start[c+1]].
func (ex *Extractor) userIndex(classes []*egraph.EClass, n int) (start []int32, users []egraph.ClassID) {
	// stamp[c] == p+1 once p has been counted as a user of c.
	stamp := make([]egraph.ClassID, n)
	start = make([]int32, n+1)
	each := func(f func(child, parent egraph.ClassID)) {
		clear(stamp)
		for _, cls := range classes {
			for _, nd := range cls.Nodes {
				for _, a := range nd.Args {
					c := ex.g.Find(a)
					if int(c) < n && stamp[c] != cls.ID+1 {
						stamp[c] = cls.ID + 1
						f(c, cls.ID)
					}
				}
			}
		}
	}
	each(func(c, _ egraph.ClassID) { start[c+1]++ })
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	users = make([]egraph.ClassID, start[n])
	fill := append([]int32(nil), start[:n]...)
	each(func(c, p egraph.ClassID) {
		users[fill[c]] = p
		fill[c]++
	})
	return start, users
}

// price prices node n against the current best choices, returning its
// total (subtree) cost and its own share. ok is false when a child has no
// implementation yet or the total is not finite. The children the model
// saw stay in ex.buf until the next call.
func (ex *Extractor) price(n egraph.ENode) (total, own float64, ok bool) {
	children := ex.buf[:0]
	sum := 0.0
	for _, a := range n.Args {
		b := ex.choice(a)
		if b == nil {
			return 0, 0, false
		}
		children = append(children, cost.ChildInfo{Cost: b.Cost, Node: b.Node})
		sum += b.Cost
	}
	ex.buf = children
	own = ex.model.NodeCost(n, children)
	total = sum + own
	if math.IsInf(total, 0) || math.IsNaN(total) {
		return 0, 0, false
	}
	return total, own, true
}

// choice returns the best choice of id's class, or nil when it has none.
func (ex *Extractor) choice(id egraph.ClassID) *Choice {
	id = ex.g.Find(id)
	if int(id) >= len(ex.best) || !ex.best[id].ok {
		return nil
	}
	return &ex.best[id]
}

// bitset is a set of class IDs.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) set(id egraph.ClassID) { s[id/64] |= 1 << (id % 64) }

// Best returns the chosen implementation of a class.
func (ex *Extractor) Best(id egraph.ClassID) (Choice, bool) {
	b := ex.choice(id)
	if b == nil {
		return Choice{}, false
	}
	return *b, true
}

// Expr materializes the extracted term for a class as an expression tree.
// Shared subterms are shared pointers in the result (a DAG), which the
// later LVN pass exploits.
func (ex *Extractor) Expr(id egraph.ClassID) (*expr.Expr, error) {
	memo := map[egraph.ClassID]*expr.Expr{}
	var build func(egraph.ClassID) (*expr.Expr, error)
	building := map[egraph.ClassID]bool{}
	build = func(c egraph.ClassID) (*expr.Expr, error) {
		c = ex.g.Find(c)
		if e, ok := memo[c]; ok {
			return e, nil
		}
		if building[c] {
			return nil, fmt.Errorf("extract: cyclic best choice at class %d (cost model not strictly monotonic?)", c)
		}
		b := ex.choice(c)
		if b == nil {
			return nil, fmt.Errorf("extract: no finite-cost implementation for class %d", c)
		}
		building[c] = true
		defer delete(building, c)
		e := &expr.Expr{Op: b.Node.Op, Lit: b.Node.Lit, Sym: ex.g.SymName(b.Node.Sym), Idx: b.Node.Idx}
		for _, a := range b.Node.Args {
			child, err := build(a)
			if err != nil {
				return nil, err
			}
			e.Args = append(e.Args, child)
		}
		memo[c] = e
		return e, nil
	}
	return build(id)
}

// Cost returns the total extracted cost of a class, or +Inf when the class
// has no implementation under the model.
func (ex *Extractor) Cost(id egraph.ClassID) float64 {
	b, ok := ex.Best(id)
	if !ok {
		return math.Inf(1)
	}
	return b.Cost
}
