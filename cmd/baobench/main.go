// Command baobench regenerates the paper's tables and figures. Each
// experiment prints the rows/series the corresponding artifact reports;
// DESIGN.md §4 is the index.
//
// Usage:
//
//	baobench -exp all
//	baobench -exp fig7,fig9 -queries 600 -scale 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"bao/cmd/internal/cli"
	"bao/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all' (see -list)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	scale := cli.Scale()
	queries := flag.Int("queries", 1200, "workload stream length (>= 1)")
	seed := flag.Int64("seed", 42, "random seed")
	queryTimeout := cli.QueryTimeout()
	listen := flag.String("listen", "", "serve /metrics and /debug/traces on this address while experiments run")
	cli.Parse()
	if *queries < 1 {
		cli.Fatal(fmt.Errorf("-queries must be >= 1, got %d", *queries))
	}

	cli.ServeObs(*listen)

	s := harness.NewSession(harness.Options{Scale: *scale, Queries: *queries, Seed: *seed,
		QueryTimeout: *queryTimeout, Out: os.Stdout})

	experiments := map[string]func() error{
		"table1":       s.Table1,
		"fig1":         s.Figure1,
		"fig7":         s.Figure7,
		"fig8":         s.Figure8,
		"fig9":         s.Figure9,
		"fig10":        s.Figure10,
		"fig11":        s.Figure11,
		"fig12":        s.Figure12,
		"fig13":        s.Figure13,
		"fig14":        s.Figure14,
		"fig15a":       s.Figure15a,
		"fig15b":       s.Figure15b,
		"fig15c":       s.Figure15c,
		"fig16":        s.Figure16,
		"hints":        s.HintAnalysis,
		"opttime":      s.OptTime,
		"ablation":     s.Ablation,
		"charact":      s.Characterize,
		"chaos":        s.Chaos,
		"explog-chaos": s.ExplogChaos,
	}
	order := []string{"table1", "charact", "fig1", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15a", "fig15b", "fig15c", "fig16", "hints", "opttime", "ablation", "chaos", "explog-chaos"}

	if *list {
		ids := make([]string, 0, len(experiments))
		for id := range experiments {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Println(strings.Join(ids, "\n"))
		return
	}

	var ids []string
	if *exp == "all" {
		ids = order
	} else {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		fn, ok := experiments[strings.TrimSpace(id)]
		if !ok {
			fmt.Fprintf(os.Stderr, "baobench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		if err := fn(); err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", id, err))
		}
		fmt.Printf("[%s completed in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
}
