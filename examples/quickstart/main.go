// Quickstart: compile a small kernel from source, look at the generated
// vector code, and run it on the bundled cycle-level DSP simulator.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	diospyros "diospyros"
)

// A scalar reference implementation of a fused "scale and accumulate"
// kernel: out = x*alpha + y, written in Diospyros's imperative kernel
// language. Sizes are fixed — that is the class of kernels Diospyros
// targets (paper §1: small kernels near the machine's vector width).
const src = `
kernel saxpy8(x[8], y[8], alpha[1]) -> (out[8]) {
    for i in 0..8 {
        out[i] = x[i] * alpha[0] + y[i];
    }
}
`

func main() {
	// Compile: symbolic evaluation lifts the loops into a mathematical
	// specification, equality saturation searches for a vectorization, and
	// the backend emits vector intrinsics.
	res, err := diospyros.CompileSource(src, diospyros.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== generated C with vector intrinsics ===")
	fmt.Println(res.Primary().C)

	fmt.Println("=== compilation statistics ===")
	fmt.Printf("saturation: %d e-nodes, %d iterations, stopped: %s\n",
		res.Saturation.Nodes, res.Saturation.Iterations, res.Saturation.Reason)
	fmt.Printf("extracted cost: %.1f\n\n", res.Primary().Cost)

	// Run the compiled kernel on the FG3-lite simulator.
	inputs := map[string][]float64{
		"x":     {1, 2, 3, 4, 5, 6, 7, 8},
		"y":     {10, 20, 30, 40, 50, 60, 70, 80},
		"alpha": {0.5},
	}
	out, sim, err := res.Run(inputs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== simulation ===")
	fmt.Printf("out = %v\n", out["out"])
	fmt.Printf("%d cycles, %d instructions on the simulated 4-wide DSP\n", sim.Cycles, sim.Instrs)
}
