// Command baoshell is an interactive SQL shell over the embedded engine
// with Bao attached: load a synthetic dataset, run queries, inspect plans
// with EXPLAIN (advisor-enriched when Bao has trained), and toggle
// PostgreSQL-style session variables:
//
//	SET enable_nestloop TO off;   -- steer the native optimizer
//	SET enable_bao TO on;         -- let Bao choose hint sets
//	EXPLAIN SELECT ...;           -- plan + Bao advice
//
// Usage:
//
//	baoshell [-workload IMDb|Stack|Corp] [-scale 0.25] [-train 0] [-guard] ...   (-h lists every flag)
//
// With -guard, Bao runs behind its guardrails (validation-gated hot-swap
// and the default-plan circuit breaker); \g prints the guard status line.
//
// With -train N, Bao first learns from N workload queries so EXPLAIN
// advice and SET enable_bao are useful immediately.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bao"
	"bao/cmd/internal/cli"
	"bao/internal/cloud"
	"bao/internal/sqlparser"
)

func main() {
	wlName := cli.Dataset()
	queryTimeout := cli.QueryTimeout()
	guardOn := cli.Guard(false)
	explog, explogSegBytes := cli.Explog()
	listen := flag.String("listen", "", "serve /metrics and /debug/traces on this address (e.g. 127.0.0.1:9090)")
	cli.Parse()

	cli.ServeObs(*listen)
	eng := cli.LoadDataset(*wlName)
	cfg := bao.FastConfig()
	cfg.PlanCache = true
	cfg.QueryTimeout = *queryTimeout
	if *guardOn {
		cfg.Breaker = bao.BreakerConfig{Enabled: true}
		cfg.Validate = bao.ValidateConfig{Enabled: true}
	}
	opt := bao.New(eng, cfg)
	// Capture the learning-loop event journal (swaps, breaker transitions,
	// censored queries) so \events can replay what the guard and trainer did.
	opt.Observer().EnableEvents(256)
	if *explog != "" {
		l, err := bao.OpenExperienceLogWith(*explog, bao.ExplogOptions{
			SegmentBytes: *explogSegBytes,
			WindowCap:    opt.WindowCap(),
		})
		if err != nil {
			cli.Fatal(err)
		}
		defer l.Close() //nolint:errcheck // session teardown
		l.Attach(opt)
		replayed, skipped := l.Replayed()
		fmt.Printf("explog: replayed %d records (%d skipped) from %s\n", replayed, skipped, *explog)
	}
	cli.Pretrain(opt)
	baoOn := false

	fmt.Println(`type SQL (single line), \t for tables, \g for guard status, \events for the learning-loop journal, \q to quit`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print(strings.ToLower(*wlName) + "=# ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return
		case line == `\t`:
			for _, t := range eng.Schema.Tables() {
				cols := make([]string, len(t.Columns))
				for i, c := range t.Columns {
					cols[i] = fmt.Sprintf("%s %s", c.Name, c.Type)
				}
				fmt.Printf("  %s(%s)\n", t.Name, strings.Join(cols, ", "))
			}
			continue
		case line == `\g`:
			printGuardStatus(opt)
			continue
		case line == `\events` || line == `\e`:
			printEvents(opt)
			continue
		}
		stmt, err := sqlparser.Parse(line)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		switch st := stmt.(type) {
		case *sqlparser.SetStmt:
			if st.Name == "enable_bao" {
				baoOn = st.Value == "on" || st.Value == "true" || st.Value == "1"
				fmt.Println("SET")
				continue
			}
			if err := eng.SetVar(st.Name, st.Value); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("SET")
		case *sqlparser.ExplainStmt:
			if !st.Analyze && opt.Trained() {
				out, err := opt.ExplainWithAdvice(st.Query.String())
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Println(out)
				continue
			}
			_, tag, err := eng.ExecSQL(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(tag)
		case *sqlparser.SelectStmt:
			start := time.Now()
			if baoOn {
				out, sel, err := opt.Run(st.String())
				if err != nil {
					if sel != nil && errors.Is(err, bao.ErrDeadlineExceeded) {
						fmt.Printf("cancelled: exceeded -query-timeout %s (Bao arm %q; recorded as censored experience)\n",
							*queryTimeout, opt.Cfg.Arms[sel.ArmID].Name)
						continue
					}
					fmt.Println("error:", err)
					continue
				}
				printRows(out)
				fmt.Printf("(%d rows; %.2f ms simulated, %.2f ms wall; Bao arm %q)\n",
					len(out.Rows), cloud.ExecSeconds(out.Counters)*1000,
					float64(time.Since(start).Microseconds())/1000,
					opt.Cfg.Arms[sel.ArmID].Name)
			} else {
				out, err := queryNative(eng, st.String(), *queryTimeout)
				if err != nil {
					if errors.Is(err, bao.ErrDeadlineExceeded) {
						fmt.Printf("cancelled: exceeded -query-timeout %s\n", *queryTimeout)
						continue
					}
					fmt.Println("error:", err)
					continue
				}
				printRows(out)
				fmt.Printf("(%d rows; %.2f ms simulated, %.2f ms wall)\n",
					len(out.Rows), cloud.ExecSeconds(out.Counters)*1000,
					float64(time.Since(start).Microseconds())/1000)
			}
		default:
			// DDL/DML and ANALYZE route through the engine directly.
			_, tag, err := eng.ExecSQL(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(tag)
		}
	}
}

// queryNative runs sql on the engine's own optimizer under the
// -query-timeout deadline, when one is set.
func queryNative(eng *bao.Engine, sql string, timeout time.Duration) (*bao.Result, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return eng.QueryCtx(ctx, sql)
}

// printRows renders a result as a simple aligned table, truncating long
// result sets the way psql's pager would.
func printRows(res *bao.Result) {
	names := make([]string, len(res.Cols))
	for i, c := range res.Cols {
		names[i] = c.Name
		if c.Alias != "" {
			names[i] = c.Alias + "." + c.Name
		}
	}
	fmt.Println(" " + strings.Join(names, " | "))
	fmt.Println(strings.Repeat("-", 3+len(strings.Join(names, " | "))))
	const maxRows = 25
	for i, r := range res.Rows {
		if i >= maxRows {
			fmt.Printf(" ... (%d more rows)\n", len(res.Rows)-maxRows)
			break
		}
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.String()
		}
		fmt.Println(" " + strings.Join(vals, " | "))
	}
}

// printGuardStatus renders the guardrail status line: breaker position,
// trip count, and the rejection/clamp counters from the optimizer's
// observer (the same series /metrics exposes).
func printGuardStatus(opt *bao.Optimizer) {
	state := "disabled"
	if br := opt.Breaker(); br != nil {
		state = br.State().String()
	}
	snap := opt.Stats()
	fmt.Printf("guard: breaker=%s trips=%.0f default-served=%.0f retrains-rejected=%.0f nonfinite-targets=%.0f nonfinite-predictions=%.0f\n",
		state,
		snap.Counter("bao_breaker_trips_total"),
		snap.Counter("bao_breaker_default_served_total"),
		snap.Counter("bao_retrain_rejected_total"),
		snap.Counter("bao_nonfinite_targets_total"),
		snap.Counter("bao_nonfinite_predictions_total"))
}

// printEvents renders the learning-loop event journal, oldest first so
// the session reads as a story: retrains accepted or rejected, breaker
// transitions, checkpoints, and censored/abandoned queries.
func printEvents(opt *bao.Optimizer) {
	events := opt.Observer().Events()
	if len(events) == 0 {
		fmt.Println("no events yet (run some queries; retrains, swaps, and breaker transitions land here)")
		return
	}
	const maxEvents = 25
	if len(events) > maxEvents {
		fmt.Printf(" ... (%d older events)\n", len(events)-maxEvents)
		events = events[:maxEvents]
	}
	// Events() is newest-first; flip for chronological reading.
	for i := len(events) - 1; i >= 0; i-- {
		ev := events[i]
		line := fmt.Sprintf(" %4d  %s  %-20s", ev.Seq, ev.At.Format("15:04:05.000"), ev.Kind)
		if ev.Arm != "" {
			line += "  arm=" + ev.Arm
		}
		if ev.Generation > 0 {
			line += fmt.Sprintf("  gen=%d", ev.Generation)
		}
		if ev.Detail != "" {
			line += "  " + ev.Detail
		}
		fmt.Println(line)
	}
}
