package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (spec, error) {
	var s spec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(data, &s)
}

// runAA makes every workload's untraced run twice with the same code and
// seed and prints, per workload and end-to-end metric, both values, their
// relative difference and the metric's bound. Two runs of one program
// must agree within the bounds the benchmark holds later changes to.
func runAA(names []string, cfg config, specPath string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return fmt.Errorf("-aa needs the bounds: %w", err)
	}
	exceeded := 0
	fmt.Printf("%-12s %-16s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, n := range names {
		a, err := runUntraced(n, cfg, io.Discard)
		if err != nil {
			return err
		}
		b, err := runUntraced(n, cfg, io.Discard)
		if err != nil {
			return err
		}
		for _, rep := range []*report{a, b} {
			for _, p := range rep.problems {
				fmt.Printf("%-12s PROBLEM %s\n", n, p)
				exceeded++
			}
		}
		for _, m := range sp.EndToEnd {
			va, vb := a.values[m.Name], b.values[m.Name]
			diff := math.Abs(va-vb) / math.Min(va, vb)
			mark := ""
			if diff > m.Bound {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-12s %-16s %14.6g %14.6g %8.4f %6.2f%s\n", n, m.Name, va, vb, diff, m.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("A/A: %d differences exceed their bounds", exceeded)
	}
	return nil
}
