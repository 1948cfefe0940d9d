package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bao/internal/bufferpool"
	"bao/internal/catalog"
	"bao/internal/planner"
	"bao/internal/sqlparser"
	"bao/internal/storage"
)

// The generated differential: seeded random tables × random well-typed
// plans over every operator and the shapes where operators meet, executed
// by the product pipeline and by the volcano oracle on buffer pools that
// start equal and are never reset between plans, so a page-order
// difference in one plan surfaces as a PageHits/PageMisses difference in a
// later one.

// picker makes the generator's choices: from a seeded rng in the
// differential test, from the fuzzer's bytes in the fuzz target (an
// exhausted input picks 0, which every generator treats as "stop
// growing").
type picker struct {
	rng  *rand.Rand
	data []byte
}

func (p *picker) intn(n int) int {
	if p.rng != nil {
		return p.rng.Intn(n)
	}
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return int(b) % n
}

// diffTable is one generated table: columns a, b (integers) and s (string),
// an index on a always and on b and s sometimes.
type diffTable struct {
	name    string
	rows    int
	domain  int
	indexed []string
}

var diffColumns = []catalog.Column{
	{Name: "a", Type: catalog.Int},
	{Name: "b", Type: catalog.Int},
	{Name: "s", Type: catalog.Str},
}

func diffColType(name string) catalog.Type {
	if name == "s" {
		return catalog.Str
	}
	return catalog.Int
}

// buildDiffDB generates 2–4 tables. Sizes straddle the page and batch
// boundary (0, 1, 63–65 rows), domains run from one value (every key a
// duplicate) to sparse, b draws from twice a's domain so joins on it meet
// missing keys, and each column's NULL share runs from none to every row.
func buildDiffDB(rng *rand.Rand) (*storage.Database, []diffTable) {
	db := storage.NewDatabase()
	sizes := []int{0, 1, 7, 40, 63, 64, 65, 130, 200, 300}
	domains := []int{1, 3, 3, 10, 10, 50}
	nullPcts := []int{0, 0, 0, 0, 10, 10, 50, 100}
	var tables []diffTable
	for ti, nt := 0, 2+rng.Intn(3); ti < nt; ti++ {
		dt := diffTable{
			name:    "t" + strconv.Itoa(ti),
			rows:    sizes[rng.Intn(len(sizes))],
			domain:  domains[rng.Intn(len(domains))],
			indexed: []string{"a"},
		}
		var nullPct [3]int // per column, so an all-NULL column sits beside usable ones
		for c := range nullPct {
			nullPct[c] = nullPcts[rng.Intn(len(nullPcts))]
		}
		tbl := storage.NewTable(catalog.MustTable(dt.name, diffColumns...))
		for i := 0; i < dt.rows; i++ {
			row := storage.Row{
				storage.IntVal(int64(rng.Intn(dt.domain))),
				storage.IntVal(int64(rng.Intn(2 * dt.domain))),
				storage.StrVal("s" + strconv.Itoa(rng.Intn(dt.domain))),
			}
			if rng.Intn(8) == 0 {
				row[2] = storage.StrVal("")
			}
			for c := range row {
				if rng.Intn(100) < nullPct[c] {
					row[c] = storage.NullVal(diffColumns[c].Type)
				}
			}
			if err := tbl.AppendRow(row); err != nil {
				panic(err)
			}
		}
		for _, col := range []string{"b", "s"} {
			if rng.Intn(2) == 0 {
				dt.indexed = append(dt.indexed, col)
			}
		}
		for _, col := range dt.indexed {
			if _, err := tbl.BuildIndex(catalog.Index{Name: dt.name + "_" + col, Table: dt.name, Column: col}); err != nil {
				panic(err)
			}
		}
		db.AddTable(tbl)
		tables = append(tables, dt)
	}
	return db, tables
}

// maxDiffRows bounds a generated join's worst-case output (|left|×|right|)
// so a depth-4 plan over one-value domains stays small.
const maxDiffRows = 20000

// planGen builds random plans that are valid by construction (every key,
// sort, group, and aggregate column is type-checked here, because the
// executor trusts the planner for that), so both evaluators must succeed.
type planGen struct {
	p      *picker
	tables []diffTable
}

func (g *planGen) value(t catalog.Type, domain int) storage.Value {
	// One below and one past the domain: probes that match nothing.
	v := g.p.intn(domain+2) - 1
	if t == catalog.Int {
		return storage.IntVal(int64(v))
	}
	return storage.StrVal("s" + strconv.Itoa(v))
}

// filter draws a predicate on col. indexable restricts it to the two kinds
// that drive an index (eq, range); ranges may be open on a side, strict,
// or empty (lo > hi).
func (g *planGen) filter(col string, domain int, indexable bool) planner.Filter {
	t := diffColType(col)
	kinds := 4
	if indexable {
		kinds = 2
	}
	switch g.p.intn(kinds) {
	case 0:
		return planner.Filter{Col: col, Kind: planner.FEq, Val: g.value(t, domain)}
	case 1:
		f := planner.Filter{Col: col, Kind: planner.FRange}
		if g.p.intn(4) != 0 {
			f.Lo = &planner.Bound{V: g.value(t, domain), Incl: g.p.intn(2) == 0}
		}
		if g.p.intn(4) != 0 || f.Lo == nil {
			f.Hi = &planner.Bound{V: g.value(t, domain), Incl: g.p.intn(2) == 0}
		}
		// Mostly well-formed ranges; one in four is left as drawn, so
		// empty ranges (lo > hi) stay covered.
		if f.Lo != nil && f.Hi != nil && f.Lo.V.Compare(f.Hi.V) > 0 && g.p.intn(4) != 0 {
			f.Lo.V, f.Hi.V = f.Hi.V, f.Lo.V
		}
		return f
	case 2:
		return planner.Filter{Col: col, Kind: planner.FNe, Val: g.value(t, domain)}
	default:
		f := planner.Filter{Col: col, Kind: planner.FIn}
		for i, n := 0, 1+g.p.intn(3); i < n; i++ {
			f.Vals = append(f.Vals, g.value(t, domain))
		}
		return f
	}
}

func (g *planGen) residuals(dt diffTable) []planner.Filter {
	var fs []planner.Filter
	for i, n := 0, []int{0, 0, 0, 1, 1, 2}[g.p.intn(6)]; i < n; i++ {
		fs = append(fs, g.filter(diffColumns[g.p.intn(len(diffColumns))].Name, dt.domain, false))
	}
	return fs
}

// estRows draws a cardinality estimate, right or wrong: the executor reads
// none of them, and a result must never depend on one. (What a wild
// estimate may cost in memory is TestHashJoinPresizeWildEstimates'.)
func (g *planGen) estRows(bound int) float64 {
	return []float64{float64(bound), 0, 1, 17, 50000, math.NaN(), float64(3*bound + 1000), -3}[g.p.intn(8)]
}

// scan builds a sequential, index, or index-only scan and returns it with
// an upper bound on its output size.
func (g *planGen) scan() (*planner.Node, int) {
	dt := g.tables[g.p.intn(len(g.tables))]
	n := &planner.Node{Op: planner.OpSeqScan, Table: dt.name, Alias: dt.name, SortedBy: -1}
	names := []string{}
	for mask, c := g.p.intn(7)+1, 0; c < len(diffColumns); c++ {
		if mask&(1<<c) != 0 {
			names = append(names, diffColumns[c].Name)
		}
	}
	if op := g.p.intn(3); op != 0 {
		n.Op = planner.OpIndexScan
		n.IndexCol = dt.indexed[g.p.intn(len(dt.indexed))]
		if g.p.intn(2) != 0 {
			f := g.filter(n.IndexCol, dt.domain, true)
			n.IndexFilter = &f
		}
		if op == 2 {
			n.Op = planner.OpIndexOnlyScan
			names = []string{n.IndexCol}
		}
	}
	if n.Op != planner.OpIndexOnlyScan {
		n.Filters = g.residuals(dt)
	}
	for _, name := range names {
		n.Cols = append(n.Cols, planner.OutCol{Alias: dt.name, Name: name, Type: diffColType(name)})
	}
	n.EstRows = g.estRows(dt.rows)
	return n, dt.rows
}

// keyPairs lists the (left, right) output positions whose types match.
func keyPairs(l, r []planner.OutCol) [][2]int {
	var out [][2]int
	for i, lc := range l {
		for j, rc := range r {
			if lc.Type == rc.Type {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

func sortOn(n *planner.Node, col int) *planner.Node {
	return &planner.Node{Op: planner.OpSort, Left: n, SortCols: []int{col}, SortDesc: []bool{false},
		Cols: n.Cols, EstRows: n.EstRows, SortedBy: col}
}

// join builds a hash, merge, naive nested-loop, or index nested-loop join
// over generated inputs. When the inputs share no column type, or the
// worst-case output is too large, it returns the left input unjoined.
func (g *planGen) join(depth int) (*planner.Node, int) {
	left, lb := g.gen(depth - 1)
	// The hash join is where the product and the oracle share the least
	// code, so it gets a double share.
	kind := []int{0, 0, 1, 2, 3}[g.p.intn(5)]
	var right *planner.Node
	var rb int
	if kind == 3 {
		// Index nested loop: the inner is a parameterized index scan whose
		// output carries the indexed column.
		dt := g.tables[g.p.intn(len(g.tables))]
		right = &planner.Node{Op: planner.OpIndexScan, Table: dt.name, Alias: dt.name, Param: true,
			IndexCol: dt.indexed[g.p.intn(len(dt.indexed))], Filters: g.residuals(dt), SortedBy: -1}
		for _, c := range diffColumns {
			if c.Name == right.IndexCol || g.p.intn(2) == 0 {
				right.Cols = append(right.Cols, planner.OutCol{Alias: dt.name, Name: c.Name, Type: c.Type})
			}
		}
		rb = dt.rows
	} else {
		right, rb = g.gen(depth - 1)
	}
	pairs := keyPairs(left.Cols, right.Cols)
	if kind == 3 {
		// The first key must be the probe: left column of the index's type.
		var probes [][2]int
		for _, pr := range pairs {
			if right.Cols[pr[1]].Name == right.IndexCol {
				probes = append(probes, pr)
			}
		}
		if len(probes) == 0 {
			return left, lb
		}
		pairs = append([][2]int{probes[g.p.intn(len(probes))]}, pairs...)
	}
	if len(pairs) == 0 || lb*rb > maxDiffRows {
		return left, lb
	}
	n := &planner.Node{Op: []planner.Op{planner.OpHashJoin, planner.OpMergeJoin, planner.OpNestLoop, planner.OpNestLoop}[kind],
		SortedBy: -1}
	first := 0
	if kind != 3 {
		first = g.p.intn(len(pairs))
	}
	n.LeftKeys, n.RightKeys = []int{pairs[first][0]}, []int{pairs[first][1]}
	if g.p.intn(3) == 0 {
		extra := pairs[g.p.intn(len(pairs))]
		n.LeftKeys, n.RightKeys = append(n.LeftKeys, extra[0]), append(n.RightKeys, extra[1])
	}
	if n.Op == planner.OpMergeJoin {
		left, right = sortOn(left, n.LeftKeys[0]), sortOn(right, n.RightKeys[0])
	}
	n.Left, n.Right = left, right
	n.Cols = append(append([]planner.OutCol{}, left.Cols...), right.Cols...)
	n.EstRows = g.estRows(lb * rb)
	return n, lb * rb
}

// gen builds a plan of at most the given depth below this node.
func (g *planGen) gen(depth int) (*planner.Node, int) {
	if depth == 0 {
		return g.scan()
	}
	switch g.p.intn(10) {
	case 0, 1:
		return g.scan()
	case 2, 3, 4, 5:
		return g.join(depth)
	case 6:
		child, bound := g.gen(depth - 1)
		n := &planner.Node{Op: planner.OpSort, Left: child, Cols: child.Cols, SortedBy: -1}
		for i, k := 0, 1+g.p.intn(2); i < k; i++ {
			n.SortCols = append(n.SortCols, g.p.intn(len(child.Cols)))
			n.SortDesc = append(n.SortDesc, g.p.intn(2) == 0)
		}
		n.EstRows = g.estRows(bound)
		return n, bound
	case 7:
		child, bound := g.gen(depth - 1)
		n := &planner.Node{Op: planner.OpAggregate, Left: child, SortedBy: -1}
		for i, k := 0, g.p.intn(3); i < k; i++ {
			c := g.p.intn(len(child.Cols))
			n.GroupCols = append(n.GroupCols, c)
			n.Cols = append(n.Cols, child.Cols[c])
		}
		for i, k := 0, 1+g.p.intn(3); i < k; i++ {
			spec := planner.AggSpec{Col: g.p.intn(len(child.Cols)+1) - 1}
			typ := catalog.Int
			switch {
			case spec.Col == -1:
				spec.Func = sqlparser.AggCount
			case child.Cols[spec.Col].Type == catalog.Int:
				spec.Func = []sqlparser.AggFunc{sqlparser.AggCount, sqlparser.AggSum, sqlparser.AggAvg,
					sqlparser.AggMin, sqlparser.AggMax}[g.p.intn(5)]
			default:
				spec.Func = []sqlparser.AggFunc{sqlparser.AggCount, sqlparser.AggMin, sqlparser.AggMax}[g.p.intn(3)]
				if spec.Func != sqlparser.AggCount {
					typ = catalog.Str
				}
			}
			n.Aggs = append(n.Aggs, spec)
			n.Cols = append(n.Cols, planner.OutCol{Name: "agg" + strconv.Itoa(i), Type: typ})
		}
		n.EstRows = g.estRows(bound)
		return n, max(bound, 1)
	case 8:
		child, bound := g.gen(depth - 1)
		n := &planner.Node{Op: planner.OpProject, Left: child, SortedBy: -1}
		for i, k := 0, 1+g.p.intn(3); i < k; i++ {
			c := g.p.intn(len(child.Cols))
			n.Projection = append(n.Projection, c)
			n.Cols = append(n.Cols, child.Cols[c])
		}
		n.EstRows = g.estRows(bound)
		return n, bound
	default:
		child, bound := g.gen(depth - 1)
		n := &planner.Node{Op: planner.OpLimit, Left: child, Cols: child.Cols, SortedBy: -1,
			N: []int{0, 1, 5, 64, 65, 1000}[g.p.intn(6)]}
		n.EstRows = g.estRows(bound)
		return n, min(bound, n.N)
	}
}

// planShape renders the operator tree, for failure messages.
func planShape(n *planner.Node) string {
	if n == nil {
		return ""
	}
	s := n.Op.String()
	if n.IsScan() {
		s += " " + n.Table
		if n.Param {
			s += " (param)"
		}
		return s
	}
	kids := []string{planShape(n.Left)}
	if n.Right != nil {
		kids = append(kids, planShape(n.Right))
	}
	return s + "[" + strings.Join(kids, ", ") + "]"
}

func pages(c Counters) int64 { return c.PageHits + c.PageMisses }

// rowsEqual compares positionally, value by value (reflect.DeepEqual is
// the same check, too slow for the fuzzer's throughput).
func rowsEqual(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// checkAgainstReference generates a database from seed and plans from p,
// and runs each plan twice on a (product, oracle) executor pair whose
// pools are never reset:
//
//  1. to completion — rows, Counters, and Trace must be identical;
//  2. with an error fault at a drawn page ordinal — both must fail (or
//     both not reach it), having charged the same page accesses, which
//     pins the ordinal to the same point of the plan. CPU at the abort is
//     deliberately not compared: a streaming operator has billed the
//     batches already pushed through it (project), the oracle bills
//     an operator when its whole input is in, so mid-plan CPU differs
//     while every completed plan's total agrees.
func checkAgainstReference(t *testing.T, seed int64, p *picker, plans int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db, tables := buildDiffDB(rng)
	capacity := []int{1, 4, 16, 256}[rng.Intn(4)]
	prod := New(db, bufferpool.New(capacity))
	ref := New(db, bufferpool.New(capacity))
	g := &planGen{p: p, tables: tables}
	injected := errors.New("injected")
	for pi := 0; pi < plans; pi++ {
		plan, _ := g.gen(1 + pi%4) // shallow plans keep joins productive, deep ones compose operators
		where := fmt.Sprintf("seed %d plan %d (pool %d) %s", seed, pi, capacity, planShape(plan))

		prod.Trace, ref.Trace = map[*planner.Node]int64{}, map[*planner.Node]int64{}
		before := prod.C
		got, err := prod.Run(plan)
		if err != nil {
			t.Fatalf("%s: product: %v", where, err)
		}
		want, err := ref.runReference(context.Background(), plan)
		if err != nil {
			t.Fatalf("%s: reference: %v", where, err)
		}
		if !rowsEqual(got, want) {
			t.Fatalf("%s: rows diverge: %d vs reference %d", where, len(got), len(want))
		}
		if prod.C != ref.C {
			t.Fatalf("%s: counters\n  product   %s\n  reference %s", where, counterLit(prod.C), counterLit(ref.C))
		}
		if !reflect.DeepEqual(prod.Trace, ref.Trace) {
			t.Fatalf("%s: trace\n  product   %v\n  reference %v", where,
				traceByPosition(plan, prod.Trace), traceByPosition(plan, ref.Trace))
		}

		fault := &Fault{AfterPages: 1 + int64(p.intn(int(pages(prod.C)-pages(before))+2)), Err: injected}
		prod.Fault, ref.Fault = fault, fault
		_, perr := prod.Run(plan)
		_, rerr := ref.runReference(context.Background(), plan)
		prod.Fault, ref.Fault = nil, nil
		if perr != rerr || (perr != nil && perr != injected) {
			t.Fatalf("%s: fault at page %d: product err %v, reference err %v", where, fault.AfterPages, perr, rerr)
		}
		if perr == nil && prod.C != ref.C {
			t.Fatalf("%s: unreached fault at page %d: counters\n  product   %s\n  reference %s",
				where, fault.AfterPages, counterLit(prod.C), counterLit(ref.C))
		}
		if prod.C.PageHits != ref.C.PageHits || prod.C.PageMisses != ref.C.PageMisses || prod.C.RandReads != ref.C.RandReads {
			t.Fatalf("%s: fault at page %d landed elsewhere:\n  product   %s\n  reference %s",
				where, fault.AfterPages, counterLit(prod.C), counterLit(ref.C))
		}
		// Re-align CPU after an abort so the next plan's comparison starts
		// equal; pages and pool state already are.
		ref.C = prod.C
	}
}

// TestExecutorDifferential is the generated product-vs-oracle comparison
// over seeded databases and plans. It also requires the generator to have
// reached every operator, and every shape where the product's row-id
// tuples meet an aggregate's materialised rows or an operator that
// reorders or rewrites tuples, so a generator regression cannot quietly
// turn the test into a scan-only one.
func TestExecutorDifferential(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		checkAgainstReference(t, seed, &picker{rng: rand.New(rand.NewSource(-seed))}, 8)
	}

	isJoin := func(n *planner.Node) bool {
		return n.Op == planner.OpHashJoin || n.Op == planner.OpMergeJoin || n.Op == planner.OpNestLoop
	}
	// input skips the sort a merge join puts under each of its inputs.
	input := func(n *planner.Node) *planner.Node {
		if n.Op == planner.OpSort {
			return n.Left
		}
		return n
	}
	shapes := []struct {
		name  string
		match func(n *planner.Node) bool
	}{
		{"a join with an aggregate on its left", func(n *planner.Node) bool {
			return isJoin(n) && input(n.Left).Op == planner.OpAggregate
		}},
		{"a join with an aggregate on its right", func(n *planner.Node) bool {
			return isJoin(n) && input(n.Right).Op == planner.OpAggregate
		}},
		{"a sort over a join", func(n *planner.Node) bool {
			return n.Op == planner.OpSort && isJoin(n.Left)
		}},
		{"a limit over a sort", func(n *planner.Node) bool {
			return n.Op == planner.OpLimit && n.Left.Op == planner.OpSort
		}},
		{"a merge join over an index nested loop", func(n *planner.Node) bool {
			isINL := func(c *planner.Node) bool { return c.Op == planner.OpNestLoop && c.Right.Param }
			return n.Op == planner.OpMergeJoin && (isINL(input(n.Left)) || isINL(input(n.Right)))
		}},
	}
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	_, tables := buildDiffDB(rng)
	g := &planGen{p: &picker{rng: rng}, tables: tables}
	for i := 0; i < 300; i++ {
		plan, _ := g.gen(4)
		plan.Walk(func(n *planner.Node) {
			name := n.Op.String()
			if n.Param {
				name = "param " + name
			}
			seen[name] = true
			for _, sh := range shapes {
				if sh.match(n) {
					seen[sh.name] = true
				}
			}
		})
	}
	for op := planner.Op(0); op < planner.NumOps; op++ {
		if !seen[op.String()] {
			t.Errorf("generator never produced %s", op)
		}
	}
	if !seen["param Index Scan"] {
		t.Error("generator never produced an index nested loop")
	}
	for _, sh := range shapes {
		if !seen[sh.name] {
			t.Errorf("generator never produced %s", sh.name)
		}
	}
}

// FuzzExecutorMatchesReference is the same comparison with the fuzzer
// choosing the plans: seed fixes the database, shape drives every choice
// the plan generator makes.
func FuzzExecutorMatchesReference(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{1, 0, 0, 3, 0, 0, 0, 0, 1, 0})
	f.Add(int64(3), []byte{5, 2, 1, 0, 2, 4, 1, 2, 6, 3, 1, 1, 2, 2, 1, 0, 0, 0, 3})
	f.Add(int64(7), []byte{7, 1, 4, 2, 3, 9, 9, 1, 2, 0, 5, 1, 1, 6, 2, 2, 8, 3})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		if len(shape) > 512 {
			t.Skip("longer inputs only repeat choices")
		}
		checkAgainstReference(t, seed, &picker{data: shape}, 4)
	})
}
