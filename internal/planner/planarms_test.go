package planner

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bao/internal/catalog"
	"bao/internal/stats"
	"bao/internal/storage"
)

// genFixture is the schema the generated queries run over: six tables of
// different sizes, each with a unique indexed id, an indexed foreign-key
// style column, an unindexed integer, an integer indexed on every other
// table, and an unindexed string.
func genFixture(t testing.TB, sampling bool) *fixture {
	t.Helper()
	f := &fixture{schema: catalog.NewSchema(), tstats: make(map[string]*stats.TableStats)}
	b := stats.PGGrade()
	if sampling {
		b = stats.ComSysGrade()
	}
	sizes := []int{40, 300, 900, 2500, 6000, 1200}
	for ti, rows := range sizes {
		name := fmt.Sprintf("g%d", ti)
		meta := catalog.MustTable(name,
			catalog.Column{Name: "id", Type: catalog.Int},
			catalog.Column{Name: "fk", Type: catalog.Int},
			catalog.Column{Name: "a", Type: catalog.Int},
			catalog.Column{Name: "b", Type: catalog.Int},
			catalog.Column{Name: "s", Type: catalog.Str})
		f.schema.AddTable(meta)
		indexed := []string{"id", "fk"}
		if ti%2 == 0 {
			indexed = append(indexed, "b")
		}
		for _, col := range indexed {
			ix := catalog.Index{Name: "ix_" + name + "_" + col, Table: name, Column: col, Unique: col == "id"}
			if err := f.schema.AddIndex(ix); err != nil {
				t.Fatal(err)
			}
		}
		tab := storage.NewTable(meta)
		for i := 0; i < rows; i++ {
			tab.AppendRow(storage.Row{
				storage.IntVal(int64(i)),
				storage.IntVal(int64(i % (rows/7 + 1))),
				storage.IntVal(int64((i * 31) % 97)),
				storage.IntVal(int64(i % 13)),
				storage.StrVal(fmt.Sprintf("s%d", i%5)),
			})
		}
		f.tstats[name] = b.Build(tab)
	}
	f.opt = &Optimizer{Schema: f.schema, Stats: f, Sampling: sampling}
	return f
}

// genSQL draws one query: 1–6 relations (tables may repeat under distinct
// aliases) joined as a chain, a star or a cycle, sometimes with a second
// predicate on an edge; eq, range, BETWEEN, IN and <> filters on indexed
// and unindexed columns; a plain or aggregate select list with optional
// GROUP BY, ORDER BY and LIMIT.
func genSQL(rng *rand.Rand) string {
	n := 1 + rng.Intn(6)
	intCols := []string{"id", "fk", "a", "b"}
	pickInt := func() string { return intCols[rng.Intn(len(intCols))] }
	col := func(rel int, name string) string { return fmt.Sprintf("x%d.%s", rel, name) }

	var from, where []string
	for i := 0; i < n; i++ {
		from = append(from, fmt.Sprintf("g%d x%d", rng.Intn(6), i))
	}
	join := func(l, r int) {
		where = append(where, col(l, pickInt())+" = "+col(r, pickInt()))
		if rng.Intn(5) == 0 {
			where = append(where, col(l, pickInt())+" = "+col(r, pickInt()))
		}
	}
	shape := rng.Intn(3)
	for i := 1; i < n; i++ {
		if shape == 1 {
			join(0, i) // star
		} else {
			join(i-1, i) // chain; closed into a cycle below
		}
	}
	if shape == 2 && n >= 3 {
		join(n-1, 0)
	}
	for i := 0; i < n; i++ {
		for k := rng.Intn(3); k > 0; k-- {
			c, v := col(i, pickInt()), rng.Intn(100)
			switch rng.Intn(7) {
			case 0:
				where = append(where, fmt.Sprintf("%s = %d", c, v))
			case 1:
				where = append(where, fmt.Sprintf("%s > %d", c, v))
			case 2:
				where = append(where, fmt.Sprintf("%s <= %d", c, v))
			case 3:
				where = append(where, fmt.Sprintf("%s BETWEEN %d AND %d", c, v, v+rng.Intn(50)))
			case 4:
				where = append(where, fmt.Sprintf("%s IN (%d, %d, %d)", c, v, v+3, v+11))
			case 5:
				where = append(where, fmt.Sprintf("%s <> %d", c, v))
			default:
				where = append(where, fmt.Sprintf("%s = 's%d'", col(i, "s"), rng.Intn(6)))
			}
		}
	}

	anyCol := func() string {
		if rng.Intn(6) == 0 {
			return col(rng.Intn(n), "s")
		}
		return col(rng.Intn(n), pickInt())
	}
	var sel, group, order []string
	if rng.Intn(2) == 0 {
		for k := rng.Intn(3); k > 0; k-- {
			g := anyCol()
			group = append(group, g)
			sel = append(sel, g)
		}
		aggs := []string{"COUNT(*)", "MIN(%s)", "MAX(%s)", "SUM(%s)", "AVG(%s)", "COUNT(%s)"}
		for k := 1 + rng.Intn(2); k > 0; k-- {
			agg := aggs[rng.Intn(len(aggs))]
			if strings.Contains(agg, "%s") {
				agg = fmt.Sprintf(agg, col(rng.Intn(n), pickInt()))
			}
			sel = append(sel, agg)
		}
		if len(group) > 0 && rng.Intn(2) == 0 {
			order = append(order, group[rng.Intn(len(group))])
		}
	} else {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			sel = append(sel, anyCol())
		}
		for k := rng.Intn(3); k > 0; k-- {
			order = append(order, anyCol())
		}
	}
	sql := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	if len(group) > 0 {
		sql += " GROUP BY " + strings.Join(group, ", ")
	}
	for i, o := range order {
		if i == 0 {
			sql += " ORDER BY "
		} else {
			sql += ", "
		}
		sql += o
		if rng.Intn(3) == 0 {
			sql += " DESC"
		}
	}
	if rng.Intn(4) == 0 {
		sql += fmt.Sprintf(" LIMIT %d", rng.Intn(50))
	}
	return sql
}

// TestPlanArmsDifferentialGenerated: over seeded random queries, PlanArms
// returns for every hint set exactly the plan — and the candidate count —
// the per-hint-set reference enumeration returns.
func TestPlanArmsDifferentialGenerated(t *testing.T) {
	hints := AllHintSets()
	for _, sampling := range []bool{false, true} {
		f := genFixture(t, sampling)
		for _, seed := range []int64{1, 2} {
			rng := rand.New(rand.NewSource(seed))
			rels := map[int]int{}
			for i := 0; i < 200; i++ {
				sql := genSQL(rng)
				q := f.analyze(t, sql)
				if err := DiffPlanArms(f.opt, q, hints); err != nil {
					t.Fatalf("sampling=%v seed=%d query %d: %s\n%v", sampling, seed, i, sql, err)
				}
				rels[len(q.Scans)]++
			}
			for n := 1; n <= 6; n++ {
				if rels[n] == 0 {
					t.Fatalf("seed %d generated no %d-relation query: %v", seed, n, rels)
				}
			}
		}
	}
}

const fiveWaySQL = "SELECT COUNT(*) FROM g1 x0, g2 x1, g3 x2, g4 x3, g5 x4 " +
	"WHERE x0.id = x1.fk AND x1.id = x2.fk AND x2.id = x3.fk AND x3.id = x4.fk AND x0.b = 3 AND x4.a > 40"

// TestPlanArmsSharesNodes: arms with the same plan get the same root, and
// a 49-arm enumeration builds far fewer Nodes than 49 separate plans hold.
func TestPlanArmsSharesNodes(t *testing.T) {
	f := genFixture(t, false)
	q := f.analyze(t, fiveWaySQL)
	hints := AllHintSets()
	roots, _, err := f.opt.PlanArms(context.Background(), q, hints)
	if err != nil {
		t.Fatal(err)
	}
	distinctRoots := map[*Node]bool{}
	distinctNodes := map[*Node]bool{}
	total := 0
	for a, r := range roots {
		for b := 0; b < a; b++ {
			if PlanDiff(r, roots[b]) == "" && r != roots[b] {
				t.Fatalf("arms %d and %d have equal plans but different roots", b, a)
			}
		}
		distinctRoots[r] = true
		r.Walk(func(n *Node) { distinctNodes[n] = true; total++ })
	}
	if len(distinctRoots) >= len(hints)/2 {
		t.Fatalf("%d distinct roots for %d hint sets: equal plans are not shared", len(distinctRoots), len(hints))
	}
	if len(distinctNodes)*2 >= total {
		t.Fatalf("%d Nodes built for plans holding %d: subplans are not shared", len(distinctNodes), total)
	}
}

// TestPlanArmsAllocs puts a ceiling on the allocations of one 50-hint-set
// enumeration of a 5-way join. The per-hint-set enumeration makes 36,975
// here (a Node plus key and column slices per costed candidate); PlanArms
// allocates its tables once and then only the Nodes of winning choices.
func TestPlanArmsAllocs(t *testing.T) {
	f := genFixture(t, false)
	q := f.analyze(t, fiveWaySQL)
	hints := AllHintSets()
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := f.opt.PlanArms(ctx, q, hints); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PlanArms, 5 relations, %d hint sets: %.0f allocs", len(hints), allocs)
	if allocs > 450 {
		t.Fatalf("PlanArms made %.0f allocations, ceiling is 450", allocs)
	}
}

// pollCtx is a context that reports cancellation from its n-th Err call
// on, so a test can cancel an enumeration at an exact point.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestPlanArmsCancellation: the enumeration polls its context once per
// relation subset and returns the context's error as soon as it is set.
func TestPlanArmsCancellation(t *testing.T) {
	f := genFixture(t, false)
	q := f.analyze(t, fiveWaySQL)
	hints := AllHintSets()

	free := &pollCtx{Context: context.Background(), cancelAt: 1 << 30}
	if _, _, err := f.opt.PlanArms(free, q, hints); err != nil {
		t.Fatal(err)
	}
	if want := 1<<len(q.Scans) - 1; free.polls != want {
		t.Fatalf("context polled %d times, want once per relation subset (%d)", free.polls, want)
	}
	for _, at := range []int{1, 7, free.polls} {
		ctx := &pollCtx{Context: context.Background(), cancelAt: at}
		roots, _, err := f.opt.PlanArms(ctx, q, hints)
		if !errors.Is(err, context.Canceled) || roots != nil {
			t.Fatalf("cancelled at poll %d: roots=%v err=%v, want context.Canceled", at, roots != nil, err)
		}
		if ctx.polls != at {
			t.Fatalf("cancelled at poll %d but the enumeration polled %d times", at, ctx.polls)
		}
	}
}
