package nature

import (
	"diospyros/internal/isa"
)

// forLoopR is forLoop with a register lower bound and arbitrary step.
func (a *asm) forLoopR(loReg, hiReg, step int, body func(iv int)) {
	iv := a.b.IReg()
	a.emit(isa.Instr{Op: isa.IMov, Dst: iv, A: loReg})
	top := a.b.FreshLabel("loop")
	end := a.b.FreshLabel("endloop")
	a.b.Label(top)
	a.emit(isa.Instr{Op: isa.BrGE, A: iv, B: hiReg, Target: end})
	body(iv)
	a.emit(isa.Instr{Op: isa.IAddI, Dst: iv, A: iv, IImm: step})
	a.emit(isa.Instr{Op: isa.Jmp, Target: top})
	a.b.Label(end)
}

// Conv2D builds the library's generic padded 2-D convolution:
// o[(ir+fr−1)×(ic+fc−1)] from input i[ir×ic] and filter f[fr×fc], with all
// four sizes runtime parameters.
//
// The strategy is the classic vendor one: iterate over filter taps, and for
// each tap accumulate a shifted, broadcast-scaled strip of the input into
// the output with 4-wide MACs — unaligned loads for the shifted input strip
// and masked stores at the row tails. Genericity costs bounds arithmetic
// per tap, exactly the overhead Figure 5 shows on filter sizes near the
// vector width.
func Conv2D(maxIR, maxIC, maxFR, maxFC int) *Program {
	pad := func(n int) int { return (n + lanes - 1) / lanes * lanes }
	maxOR, maxOC := maxIR+maxFR-1, maxIC+maxFC-1
	lay := isa.NewLayout()
	// Extra one-vector slack allows harmless unaligned over-reads at row ends;
	// masked stores keep writes exact.
	lay.Add("i", pad(maxIR*maxIC)+lanes)
	lay.Add("f", pad(maxFR*maxFC)+lanes)
	lay.Add("o", pad(maxOR*maxOC)+lanes)
	lay.Add(ParamsRegion, lanes)
	b := isa.NewBuilder("nature_conv2d", lay)
	a := &asm{b: b}

	iBase := a.iconst(lay.Base("i"))
	fBase := a.iconst(lay.Base("f"))
	oBase := a.iconst(lay.Base("o"))
	pbase := a.iconst(lay.Base(ParamsRegion))
	ir, ic := a.b.IReg(), a.b.IReg()
	fr, fc := a.b.IReg(), a.b.IReg()
	a.emit(isa.Instr{Op: isa.ILoad, Dst: ir, A: pbase, IImm: 0})
	a.emit(isa.Instr{Op: isa.ILoad, Dst: ic, A: pbase, IImm: 1})
	a.emit(isa.Instr{Op: isa.ILoad, Dst: fr, A: pbase, IImm: 2})
	a.emit(isa.Instr{Op: isa.ILoad, Dst: fc, A: pbase, IImm: 3})

	// oCols = ic + fc - 1
	oCols := a.b.IReg()
	a.emit(isa.Instr{Op: isa.IAdd, Dst: oCols, A: ic, B: fc})
	a.emit(isa.Instr{Op: isa.IAddI, Dst: oCols, A: oCols, IImm: -1})

	zero := a.iconst(0)
	// For each filter tap (fRT, fCT):
	a.forLoop(0, fr, func(fRT int) {
		a.forLoop(0, fc, func(fCT int) {
			// fv = splat(f[fRT*fc + fCT])
			fAddr := a.b.IReg()
			a.emit(isa.Instr{Op: isa.IMul, Dst: fAddr, A: fRT, B: fc})
			a.emit(isa.Instr{Op: isa.IAdd, Dst: fAddr, A: fAddr, B: fCT})
			a.emit(isa.Instr{Op: isa.IAdd, Dst: fAddr, A: fAddr, B: fBase})
			ff := a.b.FReg()
			a.emit(isa.Instr{Op: isa.SLoad, Dst: ff, A: fAddr})
			fv := a.b.VReg()
			a.emit(isa.Instr{Op: isa.VBcast, Dst: fv, A: ff})

			// Valid output rows: oRow in [fRT, fRT+ir).
			rowHi := a.b.IReg()
			a.emit(isa.Instr{Op: isa.IAdd, Dst: rowHi, A: fRT, B: ir})
			// Valid output cols: oCol in [fCT, fCT+ic).
			colHi := a.b.IReg()
			a.emit(isa.Instr{Op: isa.IAdd, Dst: colHi, A: fCT, B: ic})

			a.forLoopR(fRT, rowHi, 1, func(oRow int) {
				// rowI = iBase + (oRow-fRT)*ic - fCT  (so rowI+oCol indexes
				// i[oRow-fRT][oCol-fCT])
				iRow := a.b.IReg()
				a.emit(isa.Instr{Op: isa.ISub, Dst: iRow, A: oRow, B: fRT})
				rowI := a.b.IReg()
				a.emit(isa.Instr{Op: isa.IMul, Dst: rowI, A: iRow, B: ic})
				a.emit(isa.Instr{Op: isa.IAdd, Dst: rowI, A: rowI, B: iBase})
				a.emit(isa.Instr{Op: isa.ISub, Dst: rowI, A: rowI, B: fCT})
				// rowO = oBase + oRow*oCols
				rowO := a.b.IReg()
				a.emit(isa.Instr{Op: isa.IMul, Dst: rowO, A: oRow, B: oCols})
				a.emit(isa.Instr{Op: isa.IAdd, Dst: rowO, A: rowO, B: oBase})
				_ = zero

				a.forLoopR(fCT, colHi, lanes, func(oCol int) {
					iAddr := a.b.IReg()
					a.emit(isa.Instr{Op: isa.IAdd, Dst: iAddr, A: rowI, B: oCol})
					vi := a.b.VReg()
					a.emit(isa.Instr{Op: isa.VLoad, Dst: vi, A: iAddr})
					oAddr := a.b.IReg()
					a.emit(isa.Instr{Op: isa.IAdd, Dst: oAddr, A: rowO, B: oCol})
					vo := a.b.VReg()
					a.emit(isa.Instr{Op: isa.VLoad, Dst: vo, A: oAddr})
					a.emit(isa.Instr{Op: isa.VMac, Dst: vo, A: vi, B: fv})
					a.storeTail(oAddr, vo, oCol, colHi)
				})
			})
		})
	})
	return &Program{ISA: b.MustBuild(), In: []string{"i", "f"}, Out: []string{"o"}}
}
