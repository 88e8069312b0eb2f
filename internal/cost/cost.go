// Package cost defines the abstract cost model used to extract an efficient
// program from the saturated e-graph (paper §3.4).
//
// The model must be strictly monotonic — every node contributes positive
// cost on top of the sum of its children — which keeps extraction linear in
// the number of e-nodes. Data movement is priced abstractly: a Vec whose
// lanes gather from a single input array (or zeros) is cheaper than one that
// gathers across arrays, which in turn is cheaper than one that needs
// scalar computation inserted into lanes. This mirrors the Fusion G3's
// fast single-register shuffle vs. two-register select vs. scalar insert.
package cost

import (
	"math"
	"slices"

	"diospyros/internal/egraph"
	"diospyros/internal/expr"
	"diospyros/internal/isa"
)

// ChildInfo describes the currently chosen best implementation of a child
// e-class during extraction, letting the model classify data movement.
type ChildInfo struct {
	Cost float64
	Node egraph.ENode
}

// Model prices a single e-node given its children's chosen implementations.
// The returned value is the node's own cost, excluding children (which the
// extractor sums separately); it must be strictly positive. The children
// slice is valid only during the call: the extractor reuses its backing
// array for the next node, so a model must not retain it.
type Model interface {
	NodeCost(n egraph.ENode, children []ChildInfo) float64
}

// MovementClass classifies how a Vec literal's lanes can be materialized.
type MovementClass int

const (
	// MoveLiteral: every lane is a literal constant (one constant vector).
	MoveLiteral MovementClass = iota
	// MoveContiguous: lanes are consecutive elements of one array.
	MoveContiguous
	// MoveSingleArray: lanes gather arbitrarily from one array (or zeros);
	// one shuffle after loading.
	MoveSingleArray
	// MoveTwoArrays: lanes gather from two arrays/windows; one select.
	MoveTwoArrays
	// MoveManyArrays: lanes gather from three or more arrays; nested selects.
	MoveManyArrays
	// MoveScalarLanes: at least one lane requires scalar computation
	// inserted into the vector.
	MoveScalarLanes
)

// ClassifyVec determines the movement class of a Vec node from its chosen
// child nodes, plus the number of scalar-computed lanes. It does not
// allocate: only whether a Vec reads one, two, or three-plus distinct
// arrays matters, so the first three are tracked in a fixed set.
func ClassifyVec(children []ChildInfo) (MovementClass, int) {
	var arrays [3]egraph.SymID
	nArrays := 0
	scalarLanes := 0
	allLit := true
	contiguous := true
	var firstArr egraph.SymID
	firstIdx, haveFirst := 0, false
	for i, c := range children {
		switch c.Node.Op {
		case expr.OpLit:
			contiguous = false
		case expr.OpGet:
			allLit = false
			if nArrays < len(arrays) && !slices.Contains(arrays[:nArrays], c.Node.Sym) {
				arrays[nArrays] = c.Node.Sym
				nArrays++
			}
			if !haveFirst {
				firstArr, firstIdx, haveFirst = c.Node.Sym, c.Node.Idx, true
				if i != 0 {
					contiguous = false
				}
			} else if c.Node.Sym != firstArr || c.Node.Idx != firstIdx+i {
				contiguous = false
			}
		default:
			allLit = false
			contiguous = false
			scalarLanes++
		}
	}
	switch {
	case scalarLanes > 0:
		return MoveScalarLanes, scalarLanes
	case allLit:
		return MoveLiteral, 0
	case contiguous && nArrays == 1 && haveFirst && firstIdx%len(children) == 0:
		return MoveContiguous, 0
	case nArrays <= 1:
		return MoveSingleArray, 0
	case nArrays == 2:
		return MoveTwoArrays, 0
	default:
		return MoveManyArrays, 0
	}
}

// Diospyros is the default cost model, with weights chosen so that a fully
// vectorized kernel with cheap shuffles beats its scalar form, while heavy
// cross-array gathers or scalar-insert lanes can lose to scalar code.
//
// The zero value prices with the package-default weights and accepts Vec
// nodes of any width. ForTarget derives a model from an isa.Target, which
// is how multi-target extraction prices the same saturated e-graph
// differently per machine.
type Diospyros struct {
	// Width, when positive, is load-bearing: a Vec node whose lane count
	// differs from Width costs +Inf, so extraction can never choose a
	// decomposition chunked for another machine. With several chunk widths
	// coexisting in one e-graph (rules.Config.Widths), this is what makes
	// per-target extraction pick the right one. Zero accepts any width.
	Width int

	// Per-target weight overrides; zero means the package default. See
	// ForTarget for how an isa.Target's latencies and shuffle capabilities
	// map onto them.
	ShuffleWeight float64 // MoveSingleArray Vec (default VecShuffleCost)
	SelectWeight  float64 // MoveTwoArrays Vec (default VecSelectCost)
	ManyWeight    float64 // MoveManyArrays Vec (default VecManyCost)
	DivWeight     float64 // VecDiv multiplier on VectorOpCost (default 2)
	SqrtWeight    float64 // VecSqrt multiplier on VectorOpCost (default 2)
}

// Default weights. Scalar arithmetic costs 1 per operation; vector
// arithmetic costs 1 for Width lanes of work, which is the vectorization
// incentive. Vec construction is priced by movement class.
const (
	LeafCost        = 0.01
	ScalarOpCost    = 1.0
	VectorOpCost    = 1.0
	ListCost        = 0.1
	ConcatCost      = 0.1
	VecLiteralCost  = 0.5
	VecContigCost   = 0.6
	VecShuffleCost  = 1.6
	VecSelectCost   = 2.6
	VecManyCost     = 4.6
	VecScalarLane   = 3.0 // per scalar-computed lane, on top of VecManyCost
	UninterpPenalty = 2.0
	// ScalarLoadCost is charged to a scalar operation per Get operand: a
	// scalar op must load its own elements one by one, whereas the lanes
	// of a Vec are covered by that Vec's movement-class cost.
	ScalarLoadCost = 0.5
)

var _ Model = Diospyros{}

// weight returns override when positive, else the package default.
func weight(override, def float64) float64 {
	if override > 0 {
		return override
	}
	return def
}

// NodeCost implements Model.
func (d Diospyros) NodeCost(n egraph.ENode, children []ChildInfo) float64 {
	switch n.Op {
	case expr.OpLit, expr.OpSym, expr.OpGet:
		return LeafCost
	case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpNeg, expr.OpSgn:
		return ScalarOpCost + loadCharge(children)
	case expr.OpDiv, expr.OpSqrt:
		return ScalarOpCost*2 + loadCharge(children) // long-latency scalar ops
	case expr.OpFunc:
		return ScalarOpCost*UninterpPenalty + loadCharge(children)
	case expr.OpList:
		return ListCost
	case expr.OpConcat:
		return ConcatCost
	case expr.OpVec:
		if d.Width > 0 && len(children) != d.Width {
			// Wrong lane count for this machine: unextractable. The
			// extractor discards +Inf candidates, which prunes the whole
			// decomposition built on this Vec.
			return math.Inf(1)
		}
		mc, scalarLanes := ClassifyVec(children)
		switch mc {
		case MoveLiteral:
			return VecLiteralCost
		case MoveContiguous:
			return VecContigCost
		case MoveSingleArray:
			return weight(d.ShuffleWeight, VecShuffleCost)
		case MoveTwoArrays:
			return weight(d.SelectWeight, VecSelectCost)
		case MoveManyArrays:
			return weight(d.ManyWeight, VecManyCost)
		default:
			return weight(d.ManyWeight, VecManyCost) + VecScalarLane*float64(scalarLanes)
		}
	case expr.OpVecAdd, expr.OpVecMinus, expr.OpVecMul, expr.OpVecMAC,
		expr.OpVecNeg, expr.OpVecSgn:
		return VectorOpCost
	case expr.OpVecDiv:
		return VectorOpCost * weight(d.DivWeight, 2)
	case expr.OpVecSqrt:
		return VectorOpCost * weight(d.SqrtWeight, 2)
	case expr.OpVecFunc:
		return VectorOpCost * UninterpPenalty
	}
	return ScalarOpCost
}

// ForTarget derives the extraction cost model for a machine descriptor:
// scalar targets get the vector-forbidding model; vector targets get a
// width-gated Diospyros whose movement weights scale with the target's
// shuffle/select latencies and whose long-op multipliers follow its VDiv
// and VSqrt latencies. A machine without a single-register shuffle prices
// single-array gathers like selects; one without a two-register select
// prices any cross-register gather near the scalar-insert ceiling.
// ForTarget(isa.Default()) reproduces the package-default weights exactly.
func ForTarget(t *isa.Target) Model {
	if t.IsScalar() {
		return ScalarOnly{}
	}
	d := Diospyros{
		Width:         t.Width,
		ShuffleWeight: VecShuffleCost * float64(t.LatencyOf(isa.VShfl)),
		SelectWeight:  VecSelectCost * float64(t.LatencyOf(isa.VSel)),
		ManyWeight:    VecManyCost * float64(t.LatencyOf(isa.VSel)),
		DivWeight:     float64(t.LatencyOf(isa.VDiv)) / 5,
		SqrtWeight:    float64(t.LatencyOf(isa.VSqrt)) / 7,
	}
	if !t.ShuffleCaps.SingleRegister {
		d.ShuffleWeight = d.SelectWeight
	}
	if !t.ShuffleCaps.TwoRegister {
		d.SelectWeight = VecManyCost * 2
		d.ManyWeight = VecManyCost * 3
	}
	return d
}

// loadCharge prices the scalar loads implied by Get operands of a scalar
// operation.
func loadCharge(children []ChildInfo) float64 {
	c := 0.0
	for _, ch := range children {
		if ch.Node.Op == expr.OpGet {
			c += ScalarLoadCost
		}
	}
	return c
}

// NeedsSyms is implemented by models whose pricing depends on symbol
// payloads. Since the data-layout overhaul (DESIGN.md §14) an e-node
// carries an interned SymID, not the symbol string, so such models must be
// bound to the graph's resolver before pricing; extraction does this
// automatically (extract.New).
type NeedsSyms interface {
	// WithSyms returns the model bound to a resolver from interned symbol
	// IDs back to names. The receiver is not mutated.
	WithSyms(resolve func(egraph.SymID) string) Model
}

// Overrides wraps a base model with per-operator cost replacements, keyed
// by the DSL operator head symbol ("VecDiv", "/", "sqrt", ...). Calls to
// user-defined functions can be priced per function with "func:NAME" and
// "VecFunc:NAME" keys — the hook a designer uses to tell the extraction
// engine that a target-specific instruction (e.g. a fast reciprocal, §6)
// is cheap. Function-name keys require the graph's symbol resolver
// (NeedsSyms); unbound, they are inert and only operator-head keys apply.
type Overrides struct {
	Base    Model
	PerOp   map[string]float64
	resolve func(egraph.SymID) string
}

var _ Model = Overrides{}
var _ NeedsSyms = Overrides{}

// WithSyms implements NeedsSyms, activating "func:NAME"/"VecFunc:NAME"
// keys against the graph the resolver belongs to. The binding is forwarded
// to the base model when it needs symbols too.
func (o Overrides) WithSyms(resolve func(egraph.SymID) string) Model {
	o.resolve = resolve
	if b, ok := o.Base.(NeedsSyms); ok {
		o.Base = b.WithSyms(resolve)
	}
	return o
}

// NodeCost implements Model.
func (o Overrides) NodeCost(n egraph.ENode, children []ChildInfo) float64 {
	if len(o.PerOp) > 0 {
		if n.Op == expr.OpFunc && o.resolve != nil {
			if c, ok := o.PerOp["func:"+o.resolve(n.Sym)]; ok {
				return c
			}
		}
		if n.Op == expr.OpVecFunc && o.resolve != nil {
			if c, ok := o.PerOp["VecFunc:"+o.resolve(n.Sym)]; ok {
				return c
			}
		}
		if c, ok := o.PerOp[n.Op.String()]; ok {
			return c
		}
	}
	return o.Base.NodeCost(n, children)
}

// ScalarOnly is a cost model that forbids vector operations entirely; it is
// used by the §5.6 ablation (vector rewriting disabled) and by tests.
type ScalarOnly struct{}

var _ Model = ScalarOnly{}

// Forbidden is a node cost large enough that extraction never chooses the
// node unless no alternative exists.
const Forbidden = 1e12

// NodeCost implements Model.
func (ScalarOnly) NodeCost(n egraph.ENode, children []ChildInfo) float64 {
	if n.Op.IsVector() && n.Op != expr.OpList {
		return Forbidden
	}
	return Diospyros{}.NodeCost(n, children)
}
