package rules

import (
	"slices"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// operand is one argument of a per-lane decomposition: either an existing
// e-class or a literal to be created at apply time (searchers never mutate
// the graph).
type operand struct {
	class egraph.ClassID
	lit   float64
	isLit bool
}

func litOperand(v float64) operand { return operand{lit: v, isLit: true} }

func (o operand) resolve(g *egraph.EGraph) egraph.ClassID {
	if o.isLit {
		return g.AddLit(o.lit)
	}
	return o.class
}

// vecMatch is the applier payload for lane-wise vectorization: the vector
// operator to introduce and, for each lane, the operand tuple it
// decomposes into.
type vecMatch struct {
	op    expr.Op      // vector operator (VecAdd, VecMul, ..., VecFunc)
	sym   egraph.SymID // interned function name for VecFunc
	lanes [][]operand
}

// classHasLit reports whether the class contains the literal v.
func classHasLit(g *egraph.EGraph, id egraph.ClassID, v float64) bool {
	cls := g.Class(id)
	if cls == nil {
		return false
	}
	for _, n := range cls.Nodes {
		if n.Op == expr.OpLit && n.Lit == v {
			return true
		}
	}
	return false
}

// vectorizeRule is the custom searcher/applier for lane-wise vectorization
// of scalar operators, tolerant of zero lanes (§3.3 "custom matching for
// vectorization"). For each Vec node it tries every scalar operator family:
// if each lane either applies that operator or is a constant zero that the
// operator can produce, it emits the vectorized equivalent, e.g.
//
//	(Vec (+ a b) 0 (+ c d) 0) ⇝ (VecAdd (Vec a 0 c 0) (Vec b 0 d 0))
type vectorizeRule struct {
	ws widthSet
}

func newVectorizeRule(cfg Config) egraph.Rewrite {
	return vectorizeRule{ws: newWidthSet(cfg)}
}

// widthSet is the set of configured machine widths, precomputed once so the
// per-node match filter allocates nothing.
type widthSet map[int]bool

func newWidthSet(cfg Config) widthSet {
	ws := widthSet{}
	for _, w := range cfg.widths() {
		ws[w] = true
	}
	return ws
}

func (vectorizeRule) Name() string { return "vec-lanewise" }

// RootOps declares the head-op filter for the dispatch index
// (egraph.HeadIndexed): lane-wise vectorization only matches at classes
// containing a Vec node.
func (vectorizeRule) RootOps() []expr.Op { return []expr.Op{expr.OpVec} }

// laneOps are the scalar operator families handled by vectorizeRule.
// zeroOps gives the operand tuple that makes the operator yield 0 for
// padding lanes, or nil when the operator cannot produce 0.
var laneOps = []struct {
	scalar, vector expr.Op
	zero           []operand
}{
	{expr.OpAdd, expr.OpVecAdd, []operand{litOperand(0), litOperand(0)}},
	{expr.OpSub, expr.OpVecMinus, []operand{litOperand(0), litOperand(0)}},
	{expr.OpMul, expr.OpVecMul, []operand{litOperand(0), litOperand(0)}},
	{expr.OpDiv, expr.OpVecDiv, []operand{litOperand(0), litOperand(1)}},
	{expr.OpNeg, expr.OpVecNeg, []operand{litOperand(0)}},
	{expr.OpSqrt, expr.OpVecSqrt, []operand{litOperand(0)}},
	// sgn never yields 0 (sgn(0)=1), so no zero-lane padding for it.
	{expr.OpSgn, expr.OpVecSgn, nil},
}

func (r vectorizeRule) Search(g *egraph.EGraph) []egraph.Match {
	return r.SearchClasses(g, g.CanonicalClasses())
}

// SearchClasses restricts the search to the given classes (read-only), so
// the runner can shard lane-wise matching across workers.
func (r vectorizeRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass) []egraph.Match {
	var out []egraph.Match
	for _, cls := range classes {
		for _, vecNode := range cls.Nodes {
			if vecNode.Op != expr.OpVec || !r.ws[len(vecNode.Args)] {
				continue
			}
			for _, fam := range laneOps {
				out = appendLaneMatches(out, g, cls.ID, vecNode.Args,
					laneForm{op: fam.scalar, zero: fam.zero}, vecMatch{op: fam.vector})
			}
			out = r.searchFunc(out, g, cls.ID, vecNode)
		}
	}
	return out
}

// searchFunc vectorizes lanes that all call the same uninterpreted function
// with the same arity: (Vec (func f a) (func f b) ...) ⇝ (VecFunc f (Vec a b ...)).
// This is the extension hook §6 describes (e.g. a target recip instruction).
// The candidate (name, arity) pairs come from the first lane's calls, the
// first call of each name fixing its arity.
func (vectorizeRule) searchFunc(out []egraph.Match, g *egraph.EGraph, class egraph.ClassID, vecNode egraph.ENode) []egraph.Match {
	first := g.Class(vecNode.Args[0])
	if first == nil {
		return out
	}
	for i, n := range first.Nodes {
		if n.Op != expr.OpFunc || slices.ContainsFunc(first.Nodes[:i], func(m egraph.ENode) bool {
			return m.Op == expr.OpFunc && m.Sym == n.Sym
		}) {
			continue
		}
		out = appendLaneMatches(out, g, class, vecNode.Args,
			laneForm{op: expr.OpFunc, sym: n.Sym, arity: len(n.Args)},
			vecMatch{op: expr.OpVecFunc, sym: n.Sym})
	}
	return out
}

// laneForm is one way every lane of a Vec node may decompose: under a
// scalar operator family (op, with zero the operand tuple of a literal-zero
// lane, or nil), under one uninterpreted function (OpFunc, sym and arity),
// or under the four MAC forms (OpVecMAC).
type laneForm struct {
	op    expr.Op
	sym   egraph.SymID
	arity int
	zero  []operand
}

// macForm is the MAC searcher's lane form; a zero lane is (0, 0, 0).
var macForm = laneForm{op: expr.OpVecMAC, zero: []operand{litOperand(0), litOperand(0), litOperand(0)}}

// laneAlt is one lane's operand tuple, held by value so that visiting a
// lane allocates nothing: the matched e-node's children, or the first n
// entries of ops.
type laneAlt struct {
	args []egraph.ClassID
	ops  [3]operand
	n    int
}

// tuple materializes the operand tuple for the applier.
func (a laneAlt) tuple() []operand {
	t := append(make([]operand, 0, a.n+len(a.args)), a.ops[:a.n]...)
	for _, c := range a.args {
		t = append(t, operand{class: c})
	}
	return t
}

// visit is the one lane scan the lane-wise and MAC searchers share: it
// calls yield (when non-nil) with each of the lane's decompositions under
// f, in e-node order, up to maxLaneAlts, falling back to the zero tuple for
// a lane with none that holds the literal 0. It returns how many it found
// and whether one came from an operator e-node — for MAC, a genuine
// (+ _ (* _ _)) sum — rather than the zero fallback or a bare product.
func (f laneForm) visit(g *egraph.EGraph, lane egraph.ClassID, yield func(laneAlt)) (n int, real bool) {
	cls := g.Class(lane)
	if cls == nil {
		return 0, false
	}
	emit := func(a laneAlt) bool {
		if n++; yield != nil {
			yield(a)
		}
		return n >= maxLaneAlts
	}
scan:
	for _, nd := range cls.Nodes {
		switch {
		case f.op != expr.OpVecMAC:
			if nd.Op != f.op || (f.op == expr.OpFunc && (nd.Sym != f.sym || len(nd.Args) != f.arity)) {
				continue
			}
			real = true
			if emit(laneAlt{args: nd.Args}) {
				break scan
			}
		case nd.Op == expr.OpAdd:
			// (+ acc (* b c)) and (+ (* b c) acc).
			for side := 0; side < 2; side++ {
				prod, acc := g.Class(nd.Args[1-side]), nd.Args[side]
				if prod == nil {
					continue
				}
				for _, pn := range prod.Nodes {
					if pn.Op == expr.OpMul {
						real = true
						if emit(laneAlt{ops: [3]operand{{class: acc}, {class: pn.Args[0]}, {class: pn.Args[1]}}, n: 3}) {
							break scan
						}
					}
				}
			}
		case nd.Op == expr.OpMul:
			// Bare product: acc = 0.
			if emit(laneAlt{ops: [3]operand{litOperand(0), {class: nd.Args[0]}, {class: nd.Args[1]}}, n: 3}) {
				break scan
			}
		}
	}
	if n == 0 && f.zero != nil && classHasLit(g, lane, 0) {
		var a laneAlt
		a.n = copy(a.ops[:], f.zero)
		emit(a)
	}
	return n, real
}

// appendLaneMatches appends vm's matches at class when every lane
// decomposes under f and at least one through an operator e-node: one
// match per lane combination, up to maxCombos. A first visit of each lane
// tests feasibility without allocating; only a Vec node that matches pays
// for its per-lane operand tuples, filled by a second visit.
func appendLaneMatches(out []egraph.Match, g *egraph.EGraph, class egraph.ClassID, lanes []egraph.ClassID, f laneForm, vm vecMatch) []egraph.Match {
	anyReal := false
	for _, lane := range lanes {
		n, real := f.visit(g, lane, nil)
		if n == 0 {
			return out
		}
		anyReal = anyReal || real
	}
	if !anyReal {
		return out
	}
	alts := make([][][]operand, len(lanes))
	for i, lane := range lanes {
		f.visit(g, lane, func(a laneAlt) { alts[i] = append(alts[i], a.tuple()) })
	}
	for _, combo := range enumerate(alts) {
		vm.lanes = combo
		out = append(out, egraph.Match{Class: class, Data: vm})
	}
	return out
}

// enumerate takes per-lane alternative lists and yields up to maxCombos
// full combinations (odometer order, so the first combination uses each
// lane's first alternative).
func enumerate(alts [][][]operand) [][][]operand {
	idx := make([]int, len(alts))
	var out [][][]operand
	for {
		combo := make([][]operand, len(alts))
		for i, k := range idx {
			combo[i] = alts[i][k]
		}
		out = append(out, combo)
		if len(out) >= maxCombos {
			return out
		}
		// Advance odometer.
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(alts[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

func (r vectorizeRule) Apply(g *egraph.EGraph, m egraph.Match) bool {
	vm := m.Data.(vecMatch)
	arity := len(vm.lanes[0])
	argVecs := make([]egraph.ClassID, arity)
	for j := 0; j < arity; j++ {
		laneIDs := make([]egraph.ClassID, len(vm.lanes))
		for i := range vm.lanes {
			laneIDs[i] = vm.lanes[i][j].resolve(g)
		}
		argVecs[j] = g.Add(egraph.ENode{Op: expr.OpVec, Args: laneIDs})
	}
	node := egraph.ENode{Op: vm.op, Sym: vm.sym, Args: argVecs}
	id := g.Add(node)
	_, changed := g.Union(m.Class, id)
	return changed
}

// macRule is the custom VecMAC searcher (§3.3 "associativity &
// commutativity"): each lane independently matches one of
//
//	(+ a (* b c))   (+ (* b c) a)   (* b c)   0
//
// and the applier collects the per-lane (a, b, c) triples into
// (VecMAC (Vec a...) (Vec b...) (Vec c...)), mapping missing values to 0.
// These equivalences are recomputed every iteration rather than persisted
// in the e-graph, trading compute for memory exactly as the paper does.
type macRule struct {
	ws widthSet
}

func newMACRule(cfg Config) egraph.Rewrite {
	return macRule{ws: newWidthSet(cfg)}
}

func (macRule) Name() string { return "vec-mac" }

// RootOps declares the head-op filter for the dispatch index: MAC fusion
// only matches at classes containing a Vec node.
func (macRule) RootOps() []expr.Op { return []expr.Op{expr.OpVec} }

func (r macRule) Search(g *egraph.EGraph) []egraph.Match {
	return r.SearchClasses(g, g.CanonicalClasses())
}

// SearchClasses restricts the search to the given classes (read-only), so
// the runner can shard MAC matching across workers. A Vec node needs at
// least one lane matching a genuine (+ _ (* _ _)) sum — without one the
// plain VecMul rule is the right tool and MAC would only add noise.
func (r macRule) SearchClasses(g *egraph.EGraph, classes []*egraph.EClass) []egraph.Match {
	var out []egraph.Match
	for _, cls := range classes {
		for _, vecNode := range cls.Nodes {
			if vecNode.Op == expr.OpVec && r.ws[len(vecNode.Args)] {
				out = appendLaneMatches(out, g, cls.ID, vecNode.Args, macForm, vecMatch{op: expr.OpVecMAC})
			}
		}
	}
	return out
}

func (macRule) Apply(g *egraph.EGraph, m egraph.Match) bool {
	return vectorizeRule{}.Apply(g, m)
}
