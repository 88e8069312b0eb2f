// Custom target: the paper's §6 portability recipe, end to end. Suppose a
// DSP variant adds a fast vectorized reciprocal. To teach Diospyros the
// instruction, a designer needs (per the paper) to:
//
//  1. add a scalar rewrite rule like (/ ?x ?y) ⇝ (* ?x (recip ?y)),
//     "relying on existing support for division";
//  2. inform the engine that recip has a vector equivalent — automatic
//     here, because uninterpreted functions vectorize lane-wise;
//  3. map the intrinsic in the backend — automatic too (the C emitter
//     prints `recip_v(...)`, the simulator takes its semantics at run
//     time, standing in for the vendor toolchain).
//
// The kernel below is written with ordinary division; with the rule and a
// cost hint, the compiler discovers the reciprocal form by itself.
//
//	go run ./examples/custom-target
package main

import (
	"fmt"
	"log"
	"strings"

	diospyros "diospyros"
)

const src = `
kernel normalize8(x[8], d[8]) -> (out[8]) {
    for i in 0..8 {
        out[i] = x[i] / d[i];
    }
}
`

func main() {
	// Stock target: the kernel compiles to vector divides.
	stock, err := diospyros.CompileSource(src, diospyros.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Custom target: one rewrite rule plus cost hints for the new
	// instruction (cheap recip, to reflect the hardware).
	custom, err := diospyros.CompileSource(src, diospyros.Options{
		ExtraRules: []diospyros.RewriteRule{
			{Name: "div-to-recip", LHS: "(/ ?x ?y)", RHS: "(* ?x (func recip ?y))"},
		},
		OpCost: map[string]float64{
			"func:recip":    0.8, // fast scalar reciprocal
			"VecFunc:recip": 0.8, // fast vector reciprocal
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== stock target: vector divides ===")
	printArith(stock.Primary().C)
	fmt.Println("\n=== custom target: the search rewrote division into recip ===")
	printArith(custom.Primary().C)

	// Run both on the simulator; the custom target supplies recip's
	// semantics (the vendor toolchain's role).
	inputs := map[string][]float64{
		"x": {2, 4, 6, 8, 10, 12, 14, 16},
		"d": {2, 2, 3, 4, 5, 6, 7, 8},
	}
	_, ssim, err := stock.Run(inputs, nil)
	if err != nil {
		log.Fatal(err)
	}
	recip := map[string]func([]float64) float64{
		"recip": func(args []float64) float64 { return 1 / args[0] },
	}
	out, csim, err := custom.Run(inputs, recip)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nout = %v\n", out["out"])
	fmt.Printf("stock target:  %d cycles (vector divide latency)\n", ssim.Cycles)
	fmt.Printf("custom target: %d cycles with the fast reciprocal\n", csim.Cycles)
}

// printArith shows just the arithmetic lines of the generated code.
func printArith(c string) {
	for _, line := range strings.Split(c, "\n") {
		if strings.Contains(line, "PDX_DIV") || strings.Contains(line, "recip_v") ||
			strings.Contains(line, "PDX_MUL") {
			fmt.Println(strings.TrimSpace(line))
		}
	}
}
