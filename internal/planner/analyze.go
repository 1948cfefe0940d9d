package planner

import (
	"fmt"
	"strings"

	"bao/internal/catalog"
	"bao/internal/sqlparser"
	"bao/internal/storage"
)

// ScanInfo is one FROM-list relation after semantic analysis.
type ScanInfo struct {
	ID      int
	Alias   string
	Table   string
	Meta    *catalog.Table
	Filters []Filter
	// Needed are the column names this scan must output (used above the
	// scan: select list, joins, grouping, ordering), in table column order.
	Needed []string
}

// JoinEdge is an equality predicate between two relations.
type JoinEdge struct {
	L, R       int // relation IDs
	LCol, RCol string
}

// crosses reports whether the edge joins a relation of lmask to one of
// rmask, and if so whether it does so flipped — its R side in lmask.
func (e JoinEdge) crosses(lmask, rmask uint32) (flipped, ok bool) {
	switch {
	case lmask&(1<<e.L) != 0 && rmask&(1<<e.R) != 0:
		return false, true
	case lmask&(1<<e.R) != 0 && rmask&(1<<e.L) != 0:
		return true, true
	}
	return false, false
}

// OutputExpr is one resolved select-list entry.
type OutputExpr struct {
	Agg  sqlparser.AggFunc // AggNone for a plain column
	Rel  int               // relation ID; -1 for COUNT(*)
	Col  string
	Star bool // COUNT(*)
}

// OrderKey is one resolved ORDER BY key.
type OrderKey struct {
	Rel  int
	Col  string
	Desc bool
}

// GroupKey is one resolved GROUP BY key.
type GroupKey struct {
	Rel int
	Col string
}

// Query is the analyzed form of a SELECT: everything the optimizer needs.
type Query struct {
	Stmt    *sqlparser.SelectStmt
	Scans   []*ScanInfo
	Edges   []JoinEdge
	Outputs []OutputExpr
	Groups  []GroupKey
	Orders  []OrderKey
	Limit   int // -1 when absent
	HasAgg  bool
}

// Analyze resolves names and types against the schema and canonicalizes
// predicates. It rejects queries outside the supported subset with
// descriptive errors.
func Analyze(stmt *sqlparser.SelectStmt, schema *catalog.Schema) (*Query, error) {
	q := &Query{Stmt: stmt, Limit: stmt.Limit}
	byAlias := make(map[string]*ScanInfo)
	for i, tr := range stmt.From {
		meta, ok := schema.Table(tr.Name)
		if !ok {
			return nil, fmt.Errorf("planner: unknown table %q", tr.Name)
		}
		alias := strings.ToLower(tr.Alias)
		if _, dup := byAlias[alias]; dup {
			return nil, fmt.Errorf("planner: duplicate alias %q", alias)
		}
		si := &ScanInfo{ID: i, Alias: alias, Table: strings.ToLower(tr.Name), Meta: meta}
		byAlias[alias] = si
		q.Scans = append(q.Scans, si)
	}

	resolve := func(c sqlparser.ColRef) (*ScanInfo, int, error) {
		if c.Table != "" {
			si, ok := byAlias[strings.ToLower(c.Table)]
			if !ok {
				return nil, 0, fmt.Errorf("planner: unknown alias %q", c.Table)
			}
			ci := si.Meta.ColumnIndex(c.Column)
			if ci == -1 {
				return nil, 0, fmt.Errorf("planner: no column %q in %s", c.Column, si.Table)
			}
			return si, ci, nil
		}
		var found *ScanInfo
		var fci int
		for _, si := range q.Scans {
			if ci := si.Meta.ColumnIndex(c.Column); ci != -1 {
				if found != nil {
					return nil, 0, fmt.Errorf("planner: ambiguous column %q", c.Column)
				}
				found, fci = si, ci
			}
		}
		if found == nil {
			return nil, 0, fmt.Errorf("planner: unknown column %q", c.Column)
		}
		return found, fci, nil
	}

	needed := make([]map[string]bool, len(q.Scans))
	for i := range needed {
		needed[i] = make(map[string]bool)
	}
	markNeeded := func(si *ScanInfo, ci int) {
		needed[si.ID][strings.ToLower(si.Meta.Columns[ci].Name)] = true
	}

	litVal := func(l sqlparser.Literal, t catalog.Type, ctx string) (storage.Value, error) {
		if l.IsStr {
			if t != catalog.Str {
				return storage.Value{}, fmt.Errorf("planner: %s: string literal against %v column", ctx, t)
			}
			return storage.StrVal(l.Str), nil
		}
		if t != catalog.Int {
			return storage.Value{}, fmt.Errorf("planner: %s: integer literal against %v column", ctx, t)
		}
		return storage.IntVal(l.Int), nil
	}

	// WHERE clause.
	for _, p := range stmt.Where {
		switch pr := p.(type) {
		case sqlparser.JoinPred:
			ls, lc, err := resolve(pr.Left)
			if err != nil {
				return nil, err
			}
			rs, rc, err := resolve(pr.Right)
			if err != nil {
				return nil, err
			}
			if ls == rs {
				return nil, fmt.Errorf("planner: self-comparison %s = %s within one relation is unsupported", pr.Left, pr.Right)
			}
			lt, rt := ls.Meta.Columns[lc].Type, rs.Meta.Columns[rc].Type
			if lt != rt {
				return nil, fmt.Errorf("planner: join %s = %s compares %v to %v", pr.Left, pr.Right, lt, rt)
			}
			markNeeded(ls, lc)
			markNeeded(rs, rc)
			q.Edges = append(q.Edges, JoinEdge{
				L: ls.ID, R: rs.ID,
				LCol: strings.ToLower(ls.Meta.Columns[lc].Name),
				RCol: strings.ToLower(rs.Meta.Columns[rc].Name),
			})
		case sqlparser.FilterPred:
			si, ci, err := resolve(pr.Col)
			if err != nil {
				return nil, err
			}
			t := si.Meta.Columns[ci].Type
			v, err := litVal(pr.Val, t, pr.Col.String())
			if err != nil {
				return nil, err
			}
			col := strings.ToLower(si.Meta.Columns[ci].Name)
			f := Filter{Col: col}
			switch pr.Op {
			case sqlparser.OpEq:
				f.Kind = FEq
				f.Val = v
			case sqlparser.OpNe:
				f.Kind = FNe
				f.Val = v
			case sqlparser.OpLt:
				f.Kind = FRange
				f.Hi = &Bound{V: v, Incl: false}
			case sqlparser.OpLe:
				f.Kind = FRange
				f.Hi = &Bound{V: v, Incl: true}
			case sqlparser.OpGt:
				f.Kind = FRange
				f.Lo = &Bound{V: v, Incl: false}
			case sqlparser.OpGe:
				f.Kind = FRange
				f.Lo = &Bound{V: v, Incl: true}
			}
			si.Filters = append(si.Filters, f)
		case sqlparser.BetweenPred:
			si, ci, err := resolve(pr.Col)
			if err != nil {
				return nil, err
			}
			t := si.Meta.Columns[ci].Type
			lo, err := litVal(pr.Lo, t, pr.Col.String())
			if err != nil {
				return nil, err
			}
			hi, err := litVal(pr.Hi, t, pr.Col.String())
			if err != nil {
				return nil, err
			}
			col := strings.ToLower(si.Meta.Columns[ci].Name)
			si.Filters = append(si.Filters, Filter{Col: col, Kind: FRange,
				Lo: &Bound{V: lo, Incl: true}, Hi: &Bound{V: hi, Incl: true}})
		case sqlparser.InPred:
			si, ci, err := resolve(pr.Col)
			if err != nil {
				return nil, err
			}
			t := si.Meta.Columns[ci].Type
			var vals []storage.Value
			for _, l := range pr.Vals {
				v, err := litVal(l, t, pr.Col.String())
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			col := strings.ToLower(si.Meta.Columns[ci].Name)
			si.Filters = append(si.Filters, Filter{Col: col, Kind: FIn, Vals: vals})
		default:
			return nil, fmt.Errorf("planner: unsupported predicate %T", p)
		}
	}

	// Select list.
	for _, e := range stmt.Select {
		switch {
		case e.Agg != sqlparser.AggNone && e.Star:
			q.Outputs = append(q.Outputs, OutputExpr{Agg: e.Agg, Rel: -1, Star: true})
			q.HasAgg = true
		case e.Agg != sqlparser.AggNone:
			si, ci, err := resolve(e.Col)
			if err != nil {
				return nil, err
			}
			if e.Agg != sqlparser.AggMin && e.Agg != sqlparser.AggMax && e.Agg != sqlparser.AggCount {
				if si.Meta.Columns[ci].Type != catalog.Int {
					return nil, fmt.Errorf("planner: %s over non-numeric column %s", e.Agg, e.Col)
				}
			}
			markNeeded(si, ci)
			q.Outputs = append(q.Outputs, OutputExpr{Agg: e.Agg, Rel: si.ID,
				Col: strings.ToLower(si.Meta.Columns[ci].Name)})
			q.HasAgg = true
		case e.Star:
			for _, si := range q.Scans {
				for ci, c := range si.Meta.Columns {
					markNeeded(si, ci)
					q.Outputs = append(q.Outputs, OutputExpr{Rel: si.ID, Col: strings.ToLower(c.Name)})
				}
			}
		default:
			si, ci, err := resolve(e.Col)
			if err != nil {
				return nil, err
			}
			markNeeded(si, ci)
			q.Outputs = append(q.Outputs, OutputExpr{Rel: si.ID, Col: strings.ToLower(si.Meta.Columns[ci].Name)})
		}
	}

	// GROUP BY.
	for _, c := range stmt.GroupBy {
		si, ci, err := resolve(c)
		if err != nil {
			return nil, err
		}
		markNeeded(si, ci)
		q.Groups = append(q.Groups, GroupKey{Rel: si.ID, Col: strings.ToLower(si.Meta.Columns[ci].Name)})
	}
	if q.HasAgg {
		// Every non-aggregate output must be a grouping key.
		for _, o := range q.Outputs {
			if o.Agg != sqlparser.AggNone {
				continue
			}
			found := false
			for _, g := range q.Groups {
				if g.Rel == o.Rel && g.Col == o.Col {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("planner: column %s must appear in GROUP BY", o.Col)
			}
		}
	} else if len(q.Groups) > 0 {
		return nil, fmt.Errorf("planner: GROUP BY without aggregates is unsupported")
	}

	// ORDER BY.
	for _, o := range stmt.OrderBy {
		si, ci, err := resolve(o.Col)
		if err != nil {
			return nil, err
		}
		col := strings.ToLower(si.Meta.Columns[ci].Name)
		if q.HasAgg {
			found := false
			for _, g := range q.Groups {
				if g.Rel == si.ID && g.Col == col {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("planner: ORDER BY %s must be a grouping key in aggregate queries", o.Col)
			}
		}
		markNeeded(si, ci)
		q.Orders = append(q.Orders, OrderKey{Rel: si.ID, Col: col, Desc: o.Desc})
	}

	// Connectivity check: every relation must be reachable through join
	// edges (no cross products — the workloads never need them, and
	// rejecting them keeps the DP enumeration simple).
	if len(q.Scans) > 1 {
		adj := make(map[int][]int)
		for _, e := range q.Edges {
			adj[e.L] = append(adj[e.L], e.R)
			adj[e.R] = append(adj[e.R], e.L)
		}
		seen := map[int]bool{0: true}
		stack := []int{0}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range adj[n] {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		if len(seen) != len(q.Scans) {
			return nil, fmt.Errorf("planner: query joins are not connected (cross products unsupported)")
		}
	}

	// Materialize needed column lists in table column order.
	for _, si := range q.Scans {
		for _, c := range si.Meta.Columns {
			if needed[si.ID][strings.ToLower(c.Name)] {
				si.Needed = append(si.Needed, strings.ToLower(c.Name))
			}
		}
		// A scan that contributes nothing above itself still must produce
		// rows for cardinality; give it its first column.
		if len(si.Needed) == 0 && len(si.Meta.Columns) > 0 {
			si.Needed = []string{strings.ToLower(si.Meta.Columns[0].Name)}
		}
	}
	return q, nil
}
