package egraph

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"diospyros/internal/expr"
)

// Pattern is a term pattern for e-matching. A pattern is either a variable
// (Var non-empty), which matches any e-class and binds it, or an operator
// applied to sub-patterns. Terminal patterns can match exact payloads.
type Pattern struct {
	Var string // pattern variable, e.g. "?a"; exclusive with Op use

	Op     expr.Op
	Lit    float64 // for expr.OpLit
	Sym    string  // for OpSym/OpGet/OpFunc payloads; "" matches any for Get/Func
	Idx    int     // for OpGet; IdxAny matches any index
	IdxAny bool
	Args   []*Pattern
}

// ParsePattern parses an s-expression pattern. Tokens beginning with '?' are
// pattern variables; other syntax matches the expr DSL.
//
//	(+ ?a (* ?b ?c))
func ParsePattern(src string) (*Pattern, error) {
	p := &patParser{src: src}
	pat, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("egraph: trailing input in pattern %q", src)
	}
	return pat, nil
}

// MustPattern is ParsePattern, panicking on error (for rule tables).
func MustPattern(src string) *Pattern {
	p, err := ParsePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

type patParser struct {
	src string
	pos int
}

func (p *patParser) skip() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *patParser) token() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '(' || c == ')' || unicode.IsSpace(rune(c)) {
			break
		}
		p.pos++
	}
	return p.src[start:p.pos]
}

var patHeads = func() map[string]expr.Op {
	m := map[string]expr.Op{}
	for op := expr.Op(0); op < expr.NumOps; op++ {
		m[op.String()] = op
	}
	return m
}()

func (p *patParser) parse() (*Pattern, error) {
	p.skip()
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("egraph: unexpected end of pattern")
	}
	if p.src[p.pos] != '(' {
		tok := p.token()
		if tok == "" {
			return nil, fmt.Errorf("egraph: bad pattern at offset %d", p.pos)
		}
		if strings.HasPrefix(tok, "?") {
			return &Pattern{Var: tok}, nil
		}
		if v, err := strconv.ParseFloat(tok, 64); err == nil {
			return &Pattern{Op: expr.OpLit, Lit: v}, nil
		}
		return &Pattern{Op: expr.OpSym, Sym: tok}, nil
	}
	p.pos++ // consume '('
	p.skip()
	head := p.token()
	op, ok := patHeads[head]
	if !ok {
		return nil, fmt.Errorf("egraph: unknown pattern operator %q", head)
	}
	pat := &Pattern{Op: op}
	if op == expr.OpGet || op == expr.OpFunc || op == expr.OpVecFunc {
		p.skip()
		if pat.Sym = p.token(); strings.HasPrefix(pat.Sym, "?") {
			pat.Sym = "" // any array or function
		}
	}
	if op == expr.OpGet {
		p.skip()
		if idxTok := p.token(); strings.HasPrefix(idxTok, "?") {
			pat.IdxAny = true
		} else if idx, err := strconv.Atoi(idxTok); err != nil {
			return nil, fmt.Errorf("egraph: Get pattern index %q", idxTok)
		} else {
			pat.Idx = idx
		}
	} else {
		for {
			p.skip()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("egraph: unterminated pattern %q", p.src)
			}
			if p.src[p.pos] == ')' {
				break
			}
			a, err := p.parse()
			if err != nil {
				return nil, err
			}
			pat.Args = append(pat.Args, a)
		}
	}
	p.skip()
	if p.pos >= len(p.src) || p.src[p.pos] != ')' {
		return nil, fmt.Errorf("egraph: missing ')' in pattern")
	}
	p.pos++
	return pat, nil
}

// Vars returns the distinct variable names in the pattern, in first-use order.
func (p *Pattern) Vars() []string { return compilePattern(p).vars }

// Subst maps pattern variables to e-classes.
type Subst map[string]ClassID

// Match is one result of searching a rewrite's left-hand side: the class
// where it matched and the variable bindings. Custom searchers may attach
// arbitrary data for their applier.
type Match struct {
	Class ClassID
	Subst Subst
	Data  any
}

// SearchPattern finds all matches of the pattern anywhere in the graph.
func (g *EGraph) SearchPattern(p *Pattern) []Match {
	return compilePattern(p).search(g, g.CanonicalClasses())
}

// program is a compiled left-hand side (DESIGN.md §14.5): the pattern
// tree flattened into pre-order instructions. Each variable's slot is the
// instruction of its first occurrence, whose frame holds the binding. A
// program is immutable and shared by concurrent searches.
type program struct {
	insts []inst
	vars  []string // variable names in first-use order
	slots []int    // the binding instruction of each of vars
}

// inst is one pattern node of a program.
type inst struct {
	pat    *Pattern // the node's local checks (nodeMatches), or its variable
	bound  int      // a repeated variable's binding instruction, else -1
	parent int      // instruction whose chosen e-node holds this class
	arg    int      // argument index within that e-node
}

func compilePattern(p *Pattern) *program {
	prog := &program{}
	var walk func(q *Pattern, parent, arg int)
	walk = func(q *Pattern, parent, arg int) {
		in := inst{pat: q, bound: -1, parent: parent, arg: arg}
		if k := slices.Index(prog.vars, q.Var); k >= 0 {
			in.bound = prog.slots[k]
		} else if q.Var != "" {
			prog.vars = append(prog.vars, q.Var)
			prog.slots = append(prog.slots, len(prog.insts))
		}
		prog.insts = append(prog.insts, in)
		self := len(prog.insts) - 1
		for i, a := range q.Args {
			walk(a, self, i)
		}
	}
	walk(p, -1, 0)
	return prog
}

// inlineInsts bounds the programs whose search state lives on the stack.
const inlineInsts = 16

// frame is one instruction's search state.
type frame struct {
	class ClassID   // the canonical class this instruction matches against
	next  int       // the class's next e-node to try
	args  []ClassID // children of the e-node chosen here
}

// search returns the program's matches within classes, in class order, by
// backtracking depth-first over the instructions. Choices are made in
// pattern pre-order, which enumerates matches in nested-product order
// (DESIGN.md §14.5). A Subst is built only for a complete match, so a
// search that finds nothing allocates nothing.
func (prog *program) search(g *EGraph, classes []*EClass) []Match {
	var out []Match
	var buf [inlineInsts]frame
	frames := buf[:]
	if len(prog.insts) > inlineInsts {
		frames = make([]frame, len(prog.insts))
	}
	n := len(prog.insts)
	for _, cls := range classes {
		root := g.Find(cls.ID)
		frames[0] = frame{class: root}
		for i := 0; i >= 0; {
			if i < n && prog.advance(g, i, frames) {
				if i++; i < n {
					in := &prog.insts[i]
					frames[i] = frame{class: g.Find(frames[in.parent].args[in.arg])}
				}
				continue
			}
			if i == n {
				s := make(Subst, len(prog.vars))
				for k, v := range prog.vars {
					s[v] = frames[prog.slots[k]].class
				}
				out = append(out, Match{Class: root, Subst: s})
			}
			i--
		}
	}
	return out
}

// advance moves instruction i to its next alternative, reporting false
// when it has none left. A variable has one alternative (bind, or agree
// with its earlier binding); an operator node has one per matching e-node.
func (prog *program) advance(g *EGraph, i int, frames []frame) bool {
	in, f := &prog.insts[i], &frames[i]
	if in.pat.Var != "" {
		if f.next > 0 || (in.bound >= 0 && frames[in.bound].class != f.class) {
			return false
		}
		f.next = 1
		return true
	}
	for cls := g.classes[f.class]; cls != nil && f.next < len(cls.Nodes); {
		nd := &cls.Nodes[f.next]
		f.next++
		if g.nodeMatches(in.pat, nd) {
			f.args = nd.Args
			return true
		}
	}
	return false
}

// nodeMatches checks the node-local parts of a pattern (operator, payload,
// arity) without descending into children. Pattern symbols stay strings
// (patterns are shared across graphs); they are resolved against the
// graph's intern table here — a symbol never interned in this graph cannot
// appear on any node, so such patterns simply match nothing.
func (g *EGraph) nodeMatches(p *Pattern, n *ENode) bool {
	if p.Op != n.Op || len(p.Args) != len(n.Args) {
		return false
	}
	switch p.Op {
	case expr.OpLit:
		return p.Lit == n.Lit
	case expr.OpGet:
		if !p.IdxAny && p.Idx != n.Idx {
			return false
		}
		fallthrough
	case expr.OpFunc, expr.OpVecFunc:
		if p.Sym == "" { // any array or function
			return true
		}
		fallthrough
	case expr.OpSym:
		sid, ok := g.syms.Lookup(p.Sym)
		return ok && sid == n.Sym
	}
	return true
}

// Instantiate adds the pattern to the graph under the substitution,
// returning the resulting class. All pattern variables must be bound.
func (g *EGraph) Instantiate(p *Pattern, subst Subst) (ClassID, error) {
	if p.Var != "" {
		id, ok := subst[p.Var]
		if !ok {
			return 0, fmt.Errorf("egraph: unbound pattern variable %s", p.Var)
		}
		return g.Find(id), nil
	}
	n := ENode{Op: p.Op, Lit: p.Lit, Sym: g.InternSym(p.Sym), Idx: p.Idx}
	if len(p.Args) > 0 {
		n.Args = make([]ClassID, len(p.Args))
		for i, a := range p.Args {
			id, err := g.Instantiate(a, subst)
			if err != nil {
				return 0, err
			}
			n.Args[i] = id
		}
	}
	return g.Add(n), nil
}

// String renders the pattern in s-expression syntax.
func (p *Pattern) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

func (p *Pattern) write(b *strings.Builder) {
	if p.Var != "" {
		b.WriteString(p.Var)
		return
	}
	switch p.Op {
	case expr.OpLit:
		fmt.Fprintf(b, "%g", p.Lit)
	case expr.OpSym:
		b.WriteString(p.Sym)
	case expr.OpGet:
		idx := "?i"
		if !p.IdxAny {
			idx = strconv.Itoa(p.Idx)
		}
		fmt.Fprintf(b, "(Get %s %s)", cmp.Or(p.Sym, "?arr"), idx)
	default:
		fmt.Fprintf(b, "(%s", p.Op)
		if p.Op == expr.OpFunc || p.Op == expr.OpVecFunc {
			fmt.Fprintf(b, " %s", cmp.Or(p.Sym, "?f"))
		}
		for _, a := range p.Args {
			b.WriteByte(' ')
			a.write(b)
		}
		b.WriteByte(')')
	}
}
