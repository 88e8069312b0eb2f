package rules

import (
	"reflect"
	"testing"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
)

// The lane searchers before the shared lane visitor: laneDecompositions
// and macLanes allocated every lane's operand tuples before learning
// whether some lane fails. They are kept here as the oracle the visitor
// must reproduce match for match.

func referenceLanewise(r vectorizeRule, g *egraph.EGraph, classes []*egraph.EClass) []egraph.Match {
	var out []egraph.Match
	for _, cls := range classes {
		for _, vecNode := range cls.Nodes {
			if vecNode.Op != expr.OpVec || !r.ws[len(vecNode.Args)] {
				continue
			}
			for _, fam := range laneOps {
				alts, anyReal := laneDecompositions(g, vecNode.Args, fam.scalar, fam.zero)
				if alts == nil || !anyReal {
					continue
				}
				for _, combo := range enumerate(alts) {
					out = append(out, egraph.Match{Class: cls.ID, Data: vecMatch{op: fam.vector, lanes: combo}})
				}
			}
			out = append(out, referenceFunc(g, cls.ID, vecNode)...)
		}
	}
	return out
}

func referenceFunc(g *egraph.EGraph, class egraph.ClassID, vecNode egraph.ENode) []egraph.Match {
	first := g.Class(vecNode.Args[0])
	if first == nil {
		return nil
	}
	var out []egraph.Match
	tried := map[egraph.SymID]bool{}
	for _, n := range first.Nodes {
		if n.Op != expr.OpFunc || tried[n.Sym] {
			continue
		}
		tried[n.Sym] = true
		arity := len(n.Args)
		alts := make([][][]operand, 0, len(vecNode.Args))
		ok := true
		for _, lane := range vecNode.Args {
			var laneAlts [][]operand
			for _, ln := range g.Class(lane).Nodes {
				if ln.Op == expr.OpFunc && ln.Sym == n.Sym && len(ln.Args) == arity {
					ops := make([]operand, arity)
					for i, a := range ln.Args {
						ops[i] = operand{class: a}
					}
					laneAlts = append(laneAlts, ops)
					if len(laneAlts) >= maxLaneAlts {
						break
					}
				}
			}
			if len(laneAlts) == 0 {
				ok = false
				break
			}
			alts = append(alts, laneAlts)
		}
		if !ok {
			continue
		}
		for _, combo := range enumerate(alts) {
			out = append(out, egraph.Match{Class: class, Data: vecMatch{op: expr.OpVecFunc, sym: n.Sym, lanes: combo}})
		}
	}
	return out
}

func laneDecompositions(g *egraph.EGraph, lanes []egraph.ClassID, op expr.Op, zero []operand) (alts [][][]operand, anyReal bool) {
	alts = make([][][]operand, 0, len(lanes))
	for _, lane := range lanes {
		var laneAlts [][]operand
		cls := g.Class(lane)
		if cls == nil {
			return nil, false
		}
		for _, n := range cls.Nodes {
			if n.Op != op {
				continue
			}
			ops := make([]operand, len(n.Args))
			for i, a := range n.Args {
				ops[i] = operand{class: a}
			}
			laneAlts = append(laneAlts, ops)
			anyReal = true
			if len(laneAlts) >= maxLaneAlts {
				break
			}
		}
		if len(laneAlts) == 0 && zero != nil && classHasLit(g, lane, 0) {
			laneAlts = append(laneAlts, zero)
		}
		if len(laneAlts) == 0 {
			return nil, false
		}
		alts = append(alts, laneAlts)
	}
	return alts, anyReal
}

func referenceMAC(r macRule, g *egraph.EGraph, classes []*egraph.EClass) []egraph.Match {
	var out []egraph.Match
	for _, cls := range classes {
		for _, vecNode := range cls.Nodes {
			if vecNode.Op != expr.OpVec || !r.ws[len(vecNode.Args)] {
				continue
			}
			alts, anySum := macLanes(g, vecNode.Args)
			if alts == nil || !anySum {
				continue
			}
			for _, combo := range enumerate(alts) {
				out = append(out, egraph.Match{Class: cls.ID, Data: vecMatch{op: expr.OpVecMAC, lanes: combo}})
			}
		}
	}
	return out
}

func macLanes(g *egraph.EGraph, lanes []egraph.ClassID) (alts [][][]operand, anySum bool) {
	zero := litOperand(0)
	alts = make([][][]operand, 0, len(lanes))
	for _, lane := range lanes {
		var laneAlts [][]operand
		cls := g.Class(lane)
		if cls == nil {
			return nil, false
		}
		addAlt := func(a []operand) bool {
			laneAlts = append(laneAlts, a)
			return len(laneAlts) >= maxLaneAlts
		}
	scan:
		for _, n := range cls.Nodes {
			switch n.Op {
			case expr.OpAdd:
				for side := 0; side < 2; side++ {
					prod, acc := n.Args[1-side], n.Args[side]
					for _, pn := range g.Class(prod).Nodes {
						if pn.Op == expr.OpMul {
							anySum = true
							if addAlt([]operand{{class: acc}, {class: pn.Args[0]}, {class: pn.Args[1]}}) {
								break scan
							}
						}
					}
				}
			case expr.OpMul:
				if addAlt([]operand{zero, {class: n.Args[0]}, {class: n.Args[1]}}) {
					break scan
				}
			}
		}
		if len(laneAlts) == 0 && classHasLit(g, lane, 0) {
			laneAlts = append(laneAlts, []operand{zero, zero, zero})
		}
		if len(laneAlts) == 0 {
			return nil, false
		}
		alts = append(alts, laneAlts)
	}
	return alts, anySum
}

// laneKernels are small specs whose lanes exercise the paths the suite
// leaves cold: uninterpreted-function lanes (one name, mixed arities, two
// names), zero-padded unary lanes and sgn, which has no zero padding.
var laneKernels = []string{
	"(List (func recip (Get a 0)) (func recip (Get a 1)) (func recip (Get a 2)) (func recip (Get a 3)) (func recip (Get a 4)))",
	"(List (func f (Get a 0)) (func f (Get a 1) (Get b 1)) (func g (Get a 2)) (func f (Get a 3)))",
	"(List (neg (Get a 0)) (sqrt (Get a 1)) (sgn (Get a 2)) (neg (Get a 3)) (sgn (Get b 0)) (sgn (Get b 1)))",
	"(List (/ (Get a 0) (Get b 0)) (- (Get a 1) (Get b 1)) (/ (Get a 2) (Get b 2)))",
}

// TestLaneSearchMatchesReference is the differential oracle for the lane
// visitor: after every iteration of each suite kernel (and the laneKernels
// specs), at one width and at two, vec-lanewise and vec-mac must return
// exactly the match lists of the old allocate-first searchers — same
// classes, same operator, same per-lane operand tuples, same order.
func TestLaneSearchMatchesReference(t *testing.T) {
	specs := suiteSpecs()
	if testing.Short() {
		specs = specs[:4]
	}
	var roots []*expr.Expr
	for _, lf := range specs {
		roots = append(roots, lf.Spec)
	}
	for _, src := range laneKernels {
		roots = append(roots, expr.MustParse(src))
	}
	matched := map[string]int{}
	for _, widths := range [][]int{{4}, {4, 8}} {
		cfg := Config{Widths: widths}
		lanewise := newVectorizeRule(cfg).(vectorizeRule)
		mac := newMACRule(cfg).(macRule)
		for ri, root := range roots {
			g := egraph.New()
			g.AddExpr(root)
			for iter := 1; iter <= 5; iter++ {
				rep := egraph.Run(g, cfg.Rules(), egraph.Limits{MaxIterations: 1, MaxNodes: 20000, MatchWorkers: 1})
				g.CompressPaths()
				classes := g.CanonicalClasses()
				for _, c := range []struct {
					name      string
					got, want []egraph.Match
				}{
					{"vec-lanewise", lanewise.SearchClasses(g, classes), referenceLanewise(lanewise, g, classes)},
					{"vec-mac", mac.SearchClasses(g, classes), referenceMAC(mac, g, classes)},
				} {
					matched[c.name] += len(c.got)
					for _, m := range c.got {
						if m.Data.(vecMatch).op == expr.OpVecFunc {
							matched["VecFunc"]++
						}
					}
					if len(c.got) != len(c.want) {
						t.Errorf("widths %v root %d iteration %d: %s: %d matches, reference %d",
							widths, ri, iter, c.name, len(c.got), len(c.want))
						continue
					}
					for i := range c.got {
						if !reflect.DeepEqual(c.got[i], c.want[i]) {
							t.Errorf("widths %v root %d iteration %d: %s: match %d: %+v, reference %+v",
								widths, ri, iter, c.name, i, c.got[i], c.want[i])
							break
						}
					}
				}
				if rep.Reason != egraph.StopIterLimit {
					break
				}
			}
		}
	}
	for _, name := range []string{"vec-lanewise", "vec-mac", "VecFunc"} {
		if matched[name] == 0 {
			t.Errorf("%s never matched; the oracle checks nothing for it", name)
		}
	}
}

// TestLaneVisitorNilClass pins the nil guard the function-lane scan used
// to lack: a lane ID that names no class decomposes under no form.
func TestLaneVisitorNilClass(t *testing.T) {
	g := egraph.New()
	g.AddExpr(expr.MustParse("(func f (Get a 0))"))
	missing := egraph.ClassID(1 << 20)
	for _, f := range []laneForm{{op: expr.OpAdd}, {op: expr.OpFunc, arity: 1}, macForm} {
		if n, _ := f.visit(g, missing, nil); n != 0 {
			t.Errorf("form %v: %d alternatives on a missing class, want 0", f.op, n)
		}
	}
	first := g.AddExpr(expr.MustParse("(func f (Get a 0))"))
	vec := egraph.ENode{Op: expr.OpVec, Args: []egraph.ClassID{first, missing}}
	if out := (vectorizeRule{}).searchFunc(nil, g, first, vec); len(out) != 0 {
		t.Errorf("searchFunc matched a Vec with a missing lane: %+v", out)
	}
}

// laneMissFixture builds Vec nodes on which every lane searcher fails, and
// fails late: the first lanes decompose (sums of products, function
// calls, bare products) and only the last lane, a bare Get, does not.
func laneMissFixture() (*egraph.EGraph, []*egraph.EClass, []egraph.ShardedRewrite) {
	g := egraph.New()
	for _, src := range []string{
		"(Vec (+ (Get a 0) (* (Get b 0) (Get c 0))) (+ (* (Get b 1) (Get c 1)) (Get a 1)) (+ (Get a 2) (* (Get b 2) (Get c 2))) (Get d 0))",
		"(Vec (func f (Get a 0)) (func f (Get a 1)) (func f (Get a 2)) (Get d 1))",
		"(Vec (* (Get a 0) (Get b 0)) (* (Get a 1) (Get b 1)) (* (Get a 2) (Get b 2)) (Get d 2))",
		"(Vec (neg (Get a 0)) (sqrt (Get a 1)) (sgn (Get a 2)) (Get d 3))",
	} {
		g.AddExpr(expr.MustParse(src))
	}
	g.CompressPaths()
	cfg := Default(4)
	return g, g.CanonicalClasses(), []egraph.ShardedRewrite{
		newVectorizeRule(cfg).(egraph.ShardedRewrite),
		newMACRule(cfg).(egraph.ShardedRewrite),
	}
}

// BenchmarkLaneSearchMiss measures vec-lanewise and vec-mac over Vec nodes
// where no lane combination matches. A miss must allocate nothing: the
// searchers test every lane before building any operand tuple (CI greps
// this line for 0 allocs/op).
func BenchmarkLaneSearchMiss(b *testing.B) {
	g, classes, searchers := laneMissFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range searchers {
			if ms := r.SearchClasses(g, classes); len(ms) != 0 {
				b.Fatalf("%s matched the miss fixture: %d matches", r.Name(), len(ms))
			}
		}
	}
}
