// partition-sweep answers the architect's question from §6: given a
// module area, node and production volume, how many chiplets should
// the system be split into, and on which packaging technology?
//
// All twelve sweep questions (nine optimal-k points and three area
// turning points) go out as ONE Session.Evaluate batch, fanned out over
// the session's worker pool.
//
// Run with: go run ./examples/partition-sweep
package main

import (
	"context"
	"fmt"
	"log"

	"chipletactuary"
)

func main() {
	s, err := actuary.NewSession()
	if err != nil {
		log.Fatal(err)
	}
	d2d := actuary.D2DFraction(0.10)
	nodes := []string{"14nm", "7nm", "5nm"}
	volumes := []float64{100_000, 2_000_000, 10_000_000}

	var reqs []actuary.Request
	for _, node := range nodes {
		for _, q := range volumes {
			reqs = append(reqs, actuary.Request{
				ID:       fmt.Sprintf("optimal/%s/%.0f", node, q),
				Question: actuary.QuestionOptimalChipletCount,
				Node:     node, ModuleAreaMM2: 800, MaxK: 8,
				Scheme: actuary.MCM, D2D: d2d, Quantity: q,
			})
		}
	}
	for _, node := range nodes {
		reqs = append(reqs, actuary.Request{
			ID:       "turning/" + node,
			Question: actuary.QuestionAreaCrossover,
			Node:     node, K: 2, Scheme: actuary.MCM, D2D: d2d,
			LoMM2: 100, HiMM2: 900,
		})
	}
	results := s.Evaluate(context.Background(), reqs)
	for _, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}

	fmt.Println("Optimal chiplet count by node and volume (800 mm² of modules, MCM):")
	fmt.Println("node   volume     best k   $/unit")
	i := 0
	for _, node := range nodes {
		for _, q := range volumes {
			best := results[i].Points[results[i].Best]
			fmt.Printf("%-5s  %9.0f  %6d  %8.2f\n", node, q, best.Chiplets, best.Total.Total())
			i++
		}
	}

	fmt.Println("\nArea turning points (2-chiplet MCM RE beats monolithic SoC RE):")
	for _, node := range nodes {
		fmt.Printf("  %-5s %.0f mm²\n", node, results[i].AreaMM2)
		i++
	}
	fmt.Println("→ the closer to the Moore Limit, the earlier multi-chip pays (§6)")

	fmt.Println("\nMarginal utility of finer partitioning (5nm, 800 mm², MCM):")
	for k := 1; k <= 5; k++ {
		mu, err := s.Evaluator().MarginalUtility("5nm", 800, k, actuary.MCM, d2d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d → %d chiplets: %+.1f%% RE\n", k, k+1, -mu*100)
	}
	fmt.Println("→ two or three chiplets are usually sufficient (§6)")
}
