// Designspace: rerun the three architecture explorations that led from the
// naive SFQ baseline to SuperNPU — buffer division (Fig. 20), resource
// balancing (Fig. 21) and registers per PE (Fig. 22) — and print how each
// design decision falls out of the numbers.
package main

import (
	"context"
	"fmt"
	"log"

	"supernpu"
)

func main() {
	ctx := context.Background()
	fmt.Println("Step 1 - integrate the psum/ofmap buffers and divide them into chunks")
	fmt.Println("(speedup is the geometric mean over the six CNNs, vs the Baseline)")
	division, err := supernpu.ExploreDivision(ctx, []int{4, 16, 64, 256, 1024, 4096}, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range division {
		fmt.Printf("  %-16s single-batch %6.2fx  max-batch %6.2fx  area %5.3fx\n",
			p.Label, p.SingleBatch, p.MaxBatch, p.AreaRel)
	}
	fmt.Println("  -> performance saturates at division 64 while the MUX/DEMUX area")
	fmt.Println("     explodes beyond it: the paper picks 64.")
	fmt.Println()

	fmt.Println("Step 2 - trade PE columns for buffer capacity")
	width, err := supernpu.ExploreWidth(ctx, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range width {
		fmt.Printf("  %-28s max-batch %6.2fx\n", p.Label, p.MaxBatch)
	}
	fmt.Println("  -> widths 128 and 64 are the sweet spots; 64 has more compute")
	fmt.Println("     intensity headroom for step 3.")
	fmt.Println()

	fmt.Println("Step 3 - registers per PE (multi-kernel execution)")
	for _, w := range []int{64, 128} {
		points, err := supernpu.ExploreRegisters(ctx, w, []int{1, 2, 4, 8, 16}, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  width %d:", w)
		for _, p := range points {
			fmt.Printf("  %6.2fx", p.MaxBatch)
		}
		fmt.Println()
	}
	fmt.Println("  -> width 128 is memory-bound and flat; width 64 keeps scaling")
	fmt.Println("     until 8 registers. SuperNPU = width 64, 8 registers per PE.")
}
