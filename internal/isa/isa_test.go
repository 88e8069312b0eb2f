package isa

import (
	"strings"
	"testing"
)

func TestLayoutPacking(t *testing.T) {
	lay := NewLayout()
	if b := lay.Add("a", 8); b != 0 {
		t.Fatalf("first region base = %d", b)
	}
	if b := lay.Add("b", 4); b != 8 {
		t.Fatalf("second region base = %d", b)
	}
	if lay.Size() != 12 {
		t.Fatalf("Size = %d", lay.Size())
	}
	if lay.Base("b") != 8 || !lay.Has("a") || lay.Has("zzz") {
		t.Fatal("lookup broken")
	}
	regs := lay.Regions()
	if len(regs) != 2 || regs[0].Name != "a" || regs[1].Name != "b" {
		t.Fatalf("Regions = %+v", regs)
	}
	if r := lay.Region("b"); r.Base != 8 || r.Len != 4 {
		t.Fatalf("Region(b) = %+v", r)
	}
}

func TestLayoutPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	lay := NewLayout()
	lay.Add("a", 4)
	expectPanic("duplicate", func() { lay.Add("a", 4) })
	expectPanic("unknown base", func() { lay.Base("zzz") })
	expectPanic("unknown region", func() { lay.Region("zzz") })
}

func TestOpcodeSlots(t *testing.T) {
	memOps := []Opcode{SLoad, SStore, VLoad, VStore, VStoreN, ILoad}
	for _, op := range memOps {
		if op.Slot() != SlotMem {
			t.Errorf("%s should be a MEM-slot op", op)
		}
	}
	ctrlOps := []Opcode{Jmp, BrLT, BrGE, BrEQ, BrNE, BrLTF, BrGEF, Halt}
	for _, op := range ctrlOps {
		if op.Slot() != SlotCtrl {
			t.Errorf("%s should be a CTRL-slot op", op)
		}
		if op != Halt && !op.IsBranch() {
			t.Errorf("%s should be a branch", op)
		}
	}
	for _, op := range []Opcode{SAdd, VMac, VShfl, IConst} {
		if op.Slot() != SlotALU {
			t.Errorf("%s should be an ALU-slot op", op)
		}
	}
}

func TestLatencies(t *testing.T) {
	// Long-latency ops cost strictly more than simple ALU ops.
	for _, op := range []Opcode{SDiv, SSqrt, VDiv, VSqrt, IDiv, IMod} {
		if op.Latency() <= SAdd.Latency() {
			t.Errorf("%s latency %d not greater than add", op, op.Latency())
		}
	}
}

func TestIsVector(t *testing.T) {
	for _, op := range []Opcode{VConst, VMov, VBcast, VLoad, VStore, VStoreN,
		VInsert, VExtract, VShfl, VSel, VAdd, VMac, VCallFn} {
		if !op.IsVector() {
			t.Errorf("%s should be vector", op)
		}
	}
	for _, op := range []Opcode{SAdd, IConst, Jmp, Halt} {
		if op.IsVector() {
			t.Errorf("%s should not be vector", op)
		}
	}
}

func TestInstrStrings(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: SConst, Dst: 3, Imm: 1.5}, "f3, 1.5"},
		{Instr{Op: SLoad, Dst: 1, A: 2, IImm: 7}, "f1, [i2+7]"},
		{Instr{Op: ILoad, Dst: 1, A: 2, IImm: 7}, "i1, [i2+7]"},
		{Instr{Op: VShfl, Dst: 1, A: 2, Idx: []int{3, 2, 1, 0}}, "v1, v2, [3 2 1 0]"},
		{Instr{Op: VSel, Dst: 1, A: 2, B: 3, Idx: []int{0, 5, 2, 7}}, "v1, v2, v3, [0 5 2 7]"},
		{Instr{Op: VMac, Dst: 1, A: 2, B: 3}, "v1 += v2*v3"},
		{Instr{Op: BrLT, A: 1, B: 2, Target: "loop"}, "i1, i2, loop"},
		{Instr{Op: VStoreN, A: 1, B: 2, IImm: 4, IImm2: 3}, "[i1+4], v2, n=3"},
	}
	for _, c := range cases {
		if got := c.in.String(); !strings.Contains(got, c.want) {
			t.Errorf("String(%v) = %q, want to contain %q", c.in.Op, got, c.want)
		}
	}
}

func TestBuilderDoubleBuild(t *testing.T) {
	b := NewBuilder("x", nil)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build should fail")
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder("x", nil)
	b.Label("l")
	b.Label("l")
}

func TestBuilderAppendsHalt(t *testing.T) {
	b := NewBuilder("x", nil)
	b.Emit(Instr{Op: IConst, Dst: 0, IImm: 1})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[len(p.Instrs)-1].Op != Halt {
		t.Fatal("missing trailing Halt")
	}
}

func TestRegCounters(t *testing.T) {
	b := NewBuilder("x", nil)
	if b.FReg() != 0 || b.FReg() != 1 || b.IReg() != 0 || b.VReg() != 0 {
		t.Fatal("register counters wrong")
	}
	f, i, v := b.RegCounts()
	if f != 2 || i != 1 || v != 1 {
		t.Fatalf("RegCounts = %d %d %d", f, i, v)
	}
}

func TestOpHistogram(t *testing.T) {
	b := NewBuilder("x", nil)
	b.Emit(Instr{Op: SAdd})
	b.Emit(Instr{Op: SAdd})
	b.Emit(Instr{Op: VMac})
	p := b.MustBuild()
	h := p.OpHistogram()
	if h[SAdd] != 2 || h[VMac] != 1 || h[Halt] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestLookupTargetNames(t *testing.T) {
	for name, want := range map[string]int{"fg3lite-4": 4, "fg3lite-8": 8, "scalar": 1, "fg3lite-16": 16} {
		tg, err := LookupTarget(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tg.Name != name || tg.Width != want {
			t.Errorf("%s resolved to %s/%d, want %s/%d", name, tg.Name, tg.Width, name, want)
		}
	}
	// A non-canonical spelling of a width would otherwise resolve to a
	// generic machine sharing the registered target's name.
	for _, name := range []string{"fg3lite-08", "fg3lite-+8", "fg3lite-1", "fg3lite-x", "nope"} {
		if tg, err := LookupTarget(name); err == nil {
			t.Errorf("%s resolved to %s", name, tg.Name)
		}
	}
}
