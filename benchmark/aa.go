package main

import (
	"encoding/json"
	"fmt"
	"os"

	"existdlog/benchmark/gen"
)

// contract is the part of BENCHMARK.json the benchmark itself reads:
// each end-to-end metric's direction and the bound it may worsen by,
// and the names and units of the per-layer metrics.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract() (contract, error) {
	var c contract
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return c, fmt.Errorf("BENCHMARK.json is read from the root of the checkout: %w", err)
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return c, nil
}

// selfCheck runs the working tree against itself: two interleaved sets
// of n full runs (A1 B1 A2 B2 …), run i of either set on seed+i, and
// then applies the rule the benchmark is accepted by. Within a set, the
// distance between the first and third quartile of each metric, as a
// share of its median, must stay within the metric's bound (setup_s
// excepted); and set B's median must not be worse than set A's by more
// than the bound. Nothing changed between the sets, so whatever fails
// here is noise the bounds do not cover.
func selfCheck(n int, o options) int {
	if n < 2 {
		fatal(fmt.Errorf("-aa needs at least 2 runs per set to have quartiles"))
	}
	c, err := readContract()
	if err != nil {
		fatal(err)
	}

	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	failed := 0
	for i := 0; i < n; i++ {
		for set := range sets {
			run := o
			run.seed = o.seed + uint64(i)
			for _, name := range gen.Names {
				w, err := build(name, run)
				if err != nil {
					fatal(err)
				}
				res, err := runEndToEnd(w, run)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", name, err))
				}
				failed += res.Failed
				for m, v := range res.Metrics {
					k := key{name, m}
					sets[set][k] = append(sets[set][k], v.Value)
				}
				fmt.Printf("set %c run %d/%d seed %d %s done\n", 'A'+set, i+1, n, run.seed, name)
			}
		}
	}

	fmt.Printf("\n%-13s %-14s %11s %11s %8s %8s %9s %6s\n",
		"workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound")
	bad := 0
	for _, name := range gen.Names {
		for _, m := range c.EndToEnd {
			a, b := sets[0][key{name, m.Name}], sets[1][key{name, m.Name}]
			q1a, medA, q3a := quartiles(a)
			q1b, medB, q3b := quartiles(b)
			spreadA, spreadB := (q3a-q1a)/medA, (q3b-q1b)/medB
			worse := (medB - medA) / medA
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  MEDIANS DISAGREE"
				bad++
			}
			if m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound {
				verdict += "  SPREAD OVER BOUND"
				bad++
			}
			fmt.Printf("%-13s %-14s %11.4f %11.4f %7.1f%% %7.1f%% %+8.1f%% %5.0f%%%s\n",
				name, m.Name, medA, medB, 100*spreadA, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	switch {
	case failed > 0:
		fmt.Printf("\n%d ops failed\n", failed)
		return 1
	case bad > 0:
		fmt.Printf("\n%d of %d checks outside their bound\n", bad, 2*len(gen.Names)*len(c.EndToEnd)-len(gen.Names))
		return 1
	}
	fmt.Println("\nboth sets agree within every bound")
	return 0
}
