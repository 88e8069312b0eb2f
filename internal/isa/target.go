package isa

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Target is a runtime machine descriptor: the vector width, per-opcode
// latency overrides, and the data-movement capabilities that parameterize
// the cost model. The compiler threads a *Target through every layer —
// rules (chunk width), cost (width gating and movement weights), lowering
// and codegen (lane counts), and the simulator (register width and
// latencies) — so one binary compiles for several machines, and one
// saturated e-graph can be extracted once per target.
//
// Targets are immutable after registration; the same pointer is shared by
// concurrent compiles.
type Target struct {
	// Name identifies the target in the registry ("fg3lite-4", "scalar").
	Name string
	// Width is the number of lanes per vector register. 1 means a scalar
	// machine with no vector unit.
	Width int
	// Latencies overrides Opcode.Latency per opcode; opcodes not present
	// use the FG3-lite defaults.
	Latencies map[Opcode]int
	// ShuffleCaps describes the data-movement instructions available.
	ShuffleCaps ShuffleCaps
	// HasAssembly reports whether codegen can emit simulator-runnable
	// assembly for this target. All built-in targets have a backend;
	// custom registered targets may be IR/C-only.
	HasAssembly bool
}

// ShuffleCaps describes a target's register data-movement capabilities,
// which drive the cost model's shuffle-vs-gather penalties.
type ShuffleCaps struct {
	// SingleRegister: a one-source arbitrary-lane shuffle (VShfl,
	// PDX_SHFL-like) exists.
	SingleRegister bool
	// TwoRegister: a two-source select (VSel, PDX_SEL-like) exists.
	TwoRegister bool
}

// LatencyOf returns the issue-to-result latency of op on this target,
// falling back to the FG3-lite defaults. Safe on a nil receiver (the
// default target's latencies).
func (t *Target) LatencyOf(op Opcode) int {
	if t != nil && t.Latencies != nil {
		if l, ok := t.Latencies[op]; ok {
			return l
		}
	}
	return op.Latency()
}

// IsScalar reports whether the target has no vector unit.
func (t *Target) IsScalar() bool { return t == nil || t.Width <= 1 }

// String returns the registry name.
func (t *Target) String() string {
	if t == nil {
		return "fg3lite-4"
	}
	return t.Name
}

// NewFG3Lite builds an FG3-lite-style target of the given vector width
// (full single-register shuffle and two-register select, default
// latencies). Width must be at least 2; width-1 machines are the "scalar"
// target.
func NewFG3Lite(width int) *Target {
	return &Target{
		Name:        fmt.Sprintf("fg3lite-%d", width),
		Width:       width,
		ShuffleCaps: ShuffleCaps{SingleRegister: true, TwoRegister: true},
		HasAssembly: true,
	}
}

// registry maps target names to descriptors. Built-ins are installed at
// init; RegisterTarget adds custom machines.
var (
	registryMu sync.RWMutex
	registry   = map[string]*Target{}
)

func init() {
	// fg3lite-4: the paper's Fusion G3 stand-in, 4-wide. Default latencies.
	MustRegisterTarget(NewFG3Lite(4))
	// fg3lite-8: a hypothetical double-width variant. The wider permute
	// network costs extra cycles for cross-lane movement and the long-op
	// pipelines stretch, which the cost model and simulator both see.
	fg8 := NewFG3Lite(8)
	fg8.Latencies = map[Opcode]int{VShfl: 2, VSel: 3, VDiv: 12, VSqrt: 18}
	MustRegisterTarget(fg8)
	// scalar: no vector unit at all; extraction is forced through the
	// scalar-only cost model and codegen emits pure s-ops.
	MustRegisterTarget(&Target{Name: "scalar", Width: 1, HasAssembly: true})
}

// Default returns the default target, fg3lite-4 — the paper's machine.
func Default() *Target {
	t, _ := LookupTarget("fg3lite-4")
	return t
}

// LookupTarget resolves a target name. Registered names win; otherwise
// "fg3lite-<w>" for any width ≥ 2, spelled in canonical decimal, resolves
// to a generic FG3-lite machine of that width with default latencies.
// Other spellings ("fg3lite-08") are rejected, so a resolved target's Name
// always names the request it came from and two different machines never
// share a name.
func LookupTarget(name string) (*Target, error) {
	registryMu.RLock()
	t, ok := registry[name]
	registryMu.RUnlock()
	if ok {
		return t, nil
	}
	if w, ok := strings.CutPrefix(name, "fg3lite-"); ok {
		n, err := strconv.Atoi(w)
		if err == nil && n >= 2 && strconv.Itoa(n) == w {
			return NewFG3Lite(n), nil
		}
		if err == nil && n == 1 {
			return nil, fmt.Errorf("isa: width-1 target is %q, not %q", "scalar", name)
		}
	}
	return nil, fmt.Errorf("isa: unknown target %q (have %s)", name, strings.Join(TargetNames(), ", "))
}

// RegisterTarget installs a custom target in the registry. The name must
// be unique and the width positive.
func RegisterTarget(t *Target) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("isa: target must have a name")
	}
	if t.Width < 1 {
		return fmt.Errorf("isa: target %q has non-positive width %d", t.Name, t.Width)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[t.Name]; dup {
		return fmt.Errorf("isa: target %q already registered", t.Name)
	}
	registry[t.Name] = t
	return nil
}

// MustRegisterTarget is RegisterTarget, panicking on error (init-time use).
func MustRegisterTarget(t *Target) {
	if err := RegisterTarget(t); err != nil {
		panic(err)
	}
}

// TargetNames returns the registered target names, sorted.
func TargetNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
