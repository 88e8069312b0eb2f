// Package nature is a vendor-style optimized DSP kernel library for
// FG3-lite, standing in for the Nature DSP library shipped with the
// Tensilica SDK (paper §5.2). Like Nature, the kernels are hand-written
// with vector intrinsics but *size-generic*: matrix dimensions arrive at
// run time (in a parameter block), so every call pays parameterized loop
// control, bounds checks, and prologue/epilogue tail handling — the
// overhead that lets Diospyros's size-specialized code win on small
// kernels (Figure 5) while Nature stays competitive on larger ones.
package nature

import (
	"fmt"

	"diospyros/internal/isa"
	"diospyros/internal/sim"
)

// lanes is the vector width the library is hand-written for: like the
// vendor library it stands in for, every routine is unrolled, padded and
// tail-masked for the 4-wide default machine (fg3lite-4), and its programs
// carry no Target, so they execute at that width.
const lanes = 4

// ParamsRegion is the reserved memory region holding runtime size
// parameters (as float-encoded integers, loaded into integer registers by
// a small prologue).
const ParamsRegion = "params"

// asm provides small structured-assembly helpers over the ISA builder.
type asm struct {
	b *isa.Builder
}

func (a *asm) emit(in isa.Instr) { a.b.Emit(in) }

func (a *asm) iconst(v int) int {
	r := a.b.IReg()
	a.emit(isa.Instr{Op: isa.IConst, Dst: r, IImm: v})
	return r
}

// Program bundles a built library routine with its calling convention.
type Program struct {
	ISA *isa.Program
	// In and Out name the regions for operands; Params is the size block.
	In, Out []string
}

// forLoop emits `for iv := lo; iv < hiReg; iv++ { body }` with iv fresh.
func (a *asm) forLoop(lo int, hiReg int, body func(iv int)) {
	iv := a.b.IReg()
	a.emit(isa.Instr{Op: isa.IConst, Dst: iv, IImm: lo})
	top := a.b.FreshLabel("loop")
	end := a.b.FreshLabel("endloop")
	a.b.Label(top)
	a.emit(isa.Instr{Op: isa.BrGE, A: iv, B: hiReg, Target: end})
	body(iv)
	a.emit(isa.Instr{Op: isa.IAddI, Dst: iv, A: iv, IImm: 1})
	a.emit(isa.Instr{Op: isa.Jmp, Target: top})
	a.b.Label(end)
}

// forLoopStep is forLoop with a step > 1.
func (a *asm) forLoopStep(lo int, hiReg, step int, body func(iv int)) {
	iv := a.b.IReg()
	a.emit(isa.Instr{Op: isa.IConst, Dst: iv, IImm: lo})
	top := a.b.FreshLabel("loop")
	end := a.b.FreshLabel("endloop")
	a.b.Label(top)
	a.emit(isa.Instr{Op: isa.BrGE, A: iv, B: hiReg, Target: end})
	body(iv)
	a.emit(isa.Instr{Op: isa.IAddI, Dst: iv, A: iv, IImm: step})
	a.emit(isa.Instr{Op: isa.Jmp, Target: top})
	a.b.Label(end)
}

// storeTail stores the first (hi-col) lanes of v (at most all of them) to
// addrReg, handling the runtime tail with branches, as generic vector code
// must. colReg+lanes <= hi means a full store.
func (a *asm) storeTail(addrReg, vreg, colReg, hiReg int) {
	full := a.b.FreshLabel("full")
	done := a.b.FreshLabel("done")
	// rem = hi - col
	rem := a.b.IReg()
	a.emit(isa.Instr{Op: isa.ISub, Dst: rem, A: hiReg, B: colReg})
	four := a.iconst(lanes)
	a.emit(isa.Instr{Op: isa.BrGE, A: rem, B: four, Target: full})
	// Tail: branch ladder over 1..lanes-1 lanes.
	for n := 1; n < lanes; n++ {
		next := a.b.FreshLabel("tail")
		nval := a.iconst(n)
		a.emit(isa.Instr{Op: isa.BrNE, A: rem, B: nval, Target: next})
		a.emit(isa.Instr{Op: isa.VStoreN, A: addrReg, B: vreg, IImm2: n})
		a.emit(isa.Instr{Op: isa.Jmp, Target: done})
		a.b.Label(next)
	}
	a.emit(isa.Instr{Op: isa.Jmp, Target: done})
	a.b.Label(full)
	a.emit(isa.Instr{Op: isa.VStore, A: addrReg, B: vreg})
	a.b.Label(done)
}

// MatMul builds the library's generic matrix multiply: C[m×p] = A[m×n] ·
// B[n×p], with m, n, p read from the parameter block at run time. The inner
// kernel broadcasts A[i][k] and accumulates into a 4-wide column strip of C
// with VMac, handling the column tail with masked stores.
//
// Layout regions: a (aCap), b (bCap), c (cCap), params (3: m, n, p).
func MatMul(maxM, maxN, maxP int) *Program {
	pad := func(n int) int { return (n + lanes - 1) / lanes * lanes }
	lay := isa.NewLayout()
	lay.Add("a", pad(maxM*maxN))
	lay.Add("b", pad(maxN*maxP))
	lay.Add("c", pad(maxM*maxP))
	lay.Add(ParamsRegion, lanes)
	b := isa.NewBuilder("nature_matmul", lay)
	a := &asm{b: b}

	aBase := a.iconst(lay.Base("a"))
	bBase := a.iconst(lay.Base("b"))
	cBase := a.iconst(lay.Base("c"))
	m, n, p := a.intParams(lay)

	// for i in 0..m
	a.forLoop(0, m, func(i int) {
		// rowA = aBase + i*n
		rowA := a.b.IReg()
		a.emit(isa.Instr{Op: isa.IMul, Dst: rowA, A: i, B: n})
		a.emit(isa.Instr{Op: isa.IAdd, Dst: rowA, A: rowA, B: aBase})
		// rowC = cBase + i*p
		rowC := a.b.IReg()
		a.emit(isa.Instr{Op: isa.IMul, Dst: rowC, A: i, B: p})
		a.emit(isa.Instr{Op: isa.IAdd, Dst: rowC, A: rowC, B: cBase})
		// for j in 0..p step 4
		a.forLoopStep(0, p, lanes, func(j int) {
			acc := a.b.VReg()
			a.emit(isa.Instr{Op: isa.VConst, Dst: acc, Vals: make([]float64, lanes)})
			// for k in 0..n: acc += splat(A[i][k]) * B[k][j..j+4]
			a.forLoop(0, n, func(k int) {
				aAddr := a.b.IReg()
				a.emit(isa.Instr{Op: isa.IAdd, Dst: aAddr, A: rowA, B: k})
				af := a.b.FReg()
				a.emit(isa.Instr{Op: isa.SLoad, Dst: af, A: aAddr})
				av := a.b.VReg()
				a.emit(isa.Instr{Op: isa.VBcast, Dst: av, A: af})
				// bAddr = bBase + k*p + j
				bAddr := a.b.IReg()
				a.emit(isa.Instr{Op: isa.IMul, Dst: bAddr, A: k, B: p})
				a.emit(isa.Instr{Op: isa.IAdd, Dst: bAddr, A: bAddr, B: bBase})
				a.emit(isa.Instr{Op: isa.IAdd, Dst: bAddr, A: bAddr, B: j})
				bv := a.b.VReg()
				a.emit(isa.Instr{Op: isa.VLoad, Dst: bv, A: bAddr})
				a.emit(isa.Instr{Op: isa.VMac, Dst: acc, A: av, B: bv})
			})
			cAddr := a.b.IReg()
			a.emit(isa.Instr{Op: isa.IAdd, Dst: cAddr, A: rowC, B: j})
			a.storeTail(cAddr, acc, j, p)
		})
	})
	return &Program{ISA: b.MustBuild(), In: []string{"a", "b"}, Out: []string{"c"}}
}

// intParams loads m, n, p from the parameter block. Sizes are integers
// stored via the runner; the pseudo-load models register-passed arguments
// (one cycle each, like any load).
func (a *asm) intParams(lay *isa.Layout) (m, n, p int) {
	base := a.iconst(lay.Base(ParamsRegion))
	m, n, p = a.b.IReg(), a.b.IReg(), a.b.IReg()
	a.emit(isa.Instr{Op: isa.ILoad, Dst: m, A: base, IImm: 0})
	a.emit(isa.Instr{Op: isa.ILoad, Dst: n, A: base, IImm: 1})
	a.emit(isa.Instr{Op: isa.ILoad, Dst: p, A: base, IImm: 2})
	return m, n, p
}

// Run executes a library routine with the given operands and sizes.
func Run(p *Program, inputs map[string][]float64, sizes []int) (map[string][]float64, *sim.Result, error) {
	mem := make([]float64, p.ISA.Layout.Size())
	for name, data := range inputs {
		if !p.ISA.Layout.Has(name) {
			return nil, nil, fmt.Errorf("nature: unknown operand %q", name)
		}
		reg := p.ISA.Layout.Region(name)
		if len(data) > reg.Len {
			return nil, nil, fmt.Errorf("nature: operand %q larger than region (%d > %d)", name, len(data), reg.Len)
		}
		copy(mem[reg.Base:], data)
	}
	pb := p.ISA.Layout.Base(ParamsRegion)
	if len(sizes) > lanes {
		return nil, nil, fmt.Errorf("nature: too many size parameters")
	}
	for i, s := range sizes {
		mem[pb+i] = float64(s)
	}
	res, err := sim.Run(p.ISA, mem, sim.Defaults())
	if err != nil {
		return nil, nil, err
	}
	out := map[string][]float64{}
	for _, name := range p.Out {
		reg := p.ISA.Layout.Region(name)
		out[name] = append([]float64(nil), res.Mem[reg.Base:reg.Base+reg.Len]...)
	}
	return out, res, nil
}
