// Package engine is the database facade: it owns the catalog, stored data,
// statistics, buffer pool, planner, and executor, and exposes the query
// lifecycle (parse → analyze → plan under hints → execute) plus the
// PostgreSQL-style session variables (SET enable_* ...) that Bao drives.
//
// An Engine is configured with an estimation grade: GradePostgreSQL uses
// ANALYZE-like sampled statistics and independence assumptions, while
// GradeComSys uses the stronger commercial-grade estimation (larger
// samples, exact distinct counts, correlation- and skew-aware sampling).
package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"bao/internal/bufferpool"
	"bao/internal/catalog"
	"bao/internal/executor"
	"bao/internal/planner"
	"bao/internal/sqlparser"
	"bao/internal/stats"
	"bao/internal/storage"
)

// Grade selects the optimizer's estimation quality.
type Grade int

// Estimation grades.
const (
	GradePostgreSQL Grade = iota
	GradeComSys
)

// String names the grade as experiments report it.
func (g Grade) String() string {
	if g == GradeComSys {
		return "ComSys"
	}
	return "PostgreSQL"
}

// Engine is a single-node database instance.
type Engine struct {
	Schema *catalog.Schema
	DB     *storage.Database
	Pool   *bufferpool.Pool
	Exec   *executor.Executor
	Opt    *planner.Optimizer

	grade        Grade
	builder      stats.Builder
	tstats       map[string]*stats.TableStats
	statsEpoch   stats.Epoch
	SessionHints planner.Hints
	vars         map[string]string
}

// New creates an engine with the given estimation grade and buffer pool
// capacity in pages.
func New(grade Grade, poolPages int) *Engine {
	e := &Engine{
		Schema:       catalog.NewSchema(),
		DB:           storage.NewDatabase(),
		Pool:         bufferpool.New(poolPages),
		grade:        grade,
		tstats:       make(map[string]*stats.TableStats),
		SessionHints: planner.AllOn(),
		vars:         make(map[string]string),
	}
	if grade == GradeComSys {
		e.builder = stats.ComSysGrade()
	} else {
		e.builder = stats.PGGrade()
	}
	e.Exec = executor.New(e.DB, e.Pool)
	e.Opt = &planner.Optimizer{Schema: e.Schema, Stats: e, Sampling: grade == GradeComSys}
	return e
}

// Grade returns the engine's estimation grade.
func (e *Engine) Grade() Grade { return e.grade }

// CreateTable registers a table schema and allocates empty storage.
func (e *Engine) CreateTable(meta *catalog.Table) {
	e.Schema.AddTable(meta)
	e.DB.AddTable(storage.NewTable(meta))
	delete(e.tstats, strings.ToLower(meta.Name))
}

// DropTable removes a table entirely (the Corp schema-change experiment).
func (e *Engine) DropTable(name string) {
	e.Schema.DropTable(name)
	e.DB.DropTable(name)
	delete(e.tstats, strings.ToLower(name))
}

// Insert appends rows to a table. Statistics become stale until the next
// Analyze (exactly as in a real system).
func (e *Engine) Insert(table string, rows []storage.Row) error {
	t, ok := e.DB.Table(table)
	if !ok {
		return fmt.Errorf("engine: unknown table %s", table)
	}
	for _, r := range rows {
		if err := t.AppendRow(r); err != nil {
			return err
		}
	}
	return nil
}

// CreateIndex registers and builds a secondary index.
func (e *Engine) CreateIndex(ix catalog.Index) error {
	if err := e.Schema.AddIndex(ix); err != nil {
		return err
	}
	t, ok := e.DB.Table(ix.Table)
	if !ok {
		return fmt.Errorf("engine: unknown table %s", ix.Table)
	}
	_, err := t.BuildIndex(ix)
	return err
}

// RebuildIndexes re-sorts all indexes of a table after bulk inserts.
func (e *Engine) RebuildIndexes(table string) error {
	t, ok := e.DB.Table(table)
	if !ok {
		return fmt.Errorf("engine: unknown table %s", table)
	}
	for _, ix := range e.Schema.Indexes(table) {
		if _, err := t.BuildIndex(ix); err != nil {
			return err
		}
	}
	return nil
}

// Analyze rebuilds statistics for every table (the paper rebuilds database
// statistics fully each time a dataset is loaded).
func (e *Engine) Analyze() {
	for _, meta := range e.Schema.Tables() {
		e.AnalyzeTable(meta.Name)
	}
}

// AnalyzeTable rebuilds one table's statistics.
func (e *Engine) AnalyzeTable(name string) {
	t, ok := e.DB.Table(name)
	if !ok {
		return
	}
	e.tstats[strings.ToLower(name)] = e.builder.Build(t)
	e.statsEpoch.Bump()
}

// StatsEpoch returns the statistics epoch: it advances on every rebuild
// (Analyze/AnalyzeTable), so cached plans — whose cost and cardinality
// estimates derive from statistics — can detect that their inputs moved.
func (e *Engine) StatsEpoch() uint64 { return e.statsEpoch.Load() }

// CatalogVersion returns the schema's DDL mutation counter (see
// catalog.Schema.Version).
func (e *Engine) CatalogVersion() uint64 { return e.Schema.Version() }

// TableStats implements planner.StatsProvider.
func (e *Engine) TableStats(table string) *stats.TableStats {
	return e.tstats[strings.ToLower(table)]
}

// Result is an executed query's output.
type Result struct {
	Cols     []planner.OutCol
	Rows     []storage.Row
	Counters executor.Counters
	// PlanCandidates is the planner effort spent producing this plan, used
	// by the cloud clock's optimization-time model.
	PlanCandidates int
}

// Analyze parses and semantically analyzes a SELECT statement.
func (e *Engine) AnalyzeSQL(sql string) (*planner.Query, error) {
	stmt, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return planner.Analyze(stmt, e.Schema)
}

// Plan optimizes an analyzed query under a hint set, returning the plan
// and the planner effort (join candidates costed) spent producing it.
// Safe for concurrent use: the optimizer holds no per-plan state.
func (e *Engine) Plan(q *planner.Query, h planner.Hints) (*planner.Node, int, error) {
	return e.Opt.Plan(q, h)
}

// PlanSQL parses, analyzes, and optimizes in one step.
func (e *Engine) PlanSQL(sql string, h planner.Hints) (*planner.Node, error) {
	q, err := e.AnalyzeSQL(sql)
	if err != nil {
		return nil, err
	}
	n, _, err := e.Plan(q, h)
	return n, err
}

// Execute runs a plan, returning rows and the work counters for this
// execution only.
func (e *Engine) Execute(n *planner.Node) (*Result, error) {
	return e.ExecuteCtx(context.Background(), n)
}

// ExecuteCtx runs a plan under a context. A cancelled execution stops
// within one cancellation-check interval and returns a
// *executor.DeadlineExceededError whose Counters hold this execution's
// partial work (the per-query delta, not the executor's lifetime totals) —
// the evidence a censored observation is built from.
func (e *Engine) ExecuteCtx(ctx context.Context, n *planner.Node) (*Result, error) {
	before := e.Exec.C
	rows, err := e.Exec.RunCtx(ctx, n)
	after := e.Exec.C
	delta := executor.Counters{
		CPUOps:     after.CPUOps - before.CPUOps,
		PageHits:   after.PageHits - before.PageHits,
		PageMisses: after.PageMisses - before.PageMisses,
		RandReads:  after.RandReads - before.RandReads,
		RowsOut:    after.RowsOut - before.RowsOut,
	}
	if err != nil {
		var de *executor.DeadlineExceededError
		if errors.As(err, &de) {
			de.Counters = delta
		}
		return nil, err
	}
	return &Result{Cols: n.Cols, Rows: rows, Counters: delta}, nil
}

// Query is the convenience path: parse, plan under the session hints, and
// execute.
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx is Query under a context; see ExecuteCtx for cancellation
// semantics.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	q, err := e.AnalyzeSQL(sql)
	if err != nil {
		return nil, err
	}
	n, cands, err := e.Plan(q, e.SessionHints)
	if err != nil {
		return nil, err
	}
	res, err := e.ExecuteCtx(ctx, n)
	if err != nil {
		return nil, err
	}
	res.PlanCandidates = cands
	return res, nil
}

// SetVar applies a SET statement. Hint variables adjust the session hints;
// everything else is stored for higher layers (e.g. enable_bao) to read.
func (e *Engine) SetVar(name, value string) error {
	on, err := parseBool(value)
	if err != nil {
		return fmt.Errorf("engine: SET %s: %v", name, err)
	}
	switch strings.ToLower(name) {
	case "enable_hashjoin":
		e.SessionHints.HashJoin = on
	case "enable_mergejoin":
		e.SessionHints.MergeJoin = on
	case "enable_nestloop":
		e.SessionHints.NestLoop = on
	case "enable_seqscan":
		e.SessionHints.SeqScan = on
	case "enable_indexscan":
		e.SessionHints.IndexScan = on
	case "enable_indexonlyscan":
		e.SessionHints.IndexOnlyScan = on
	default:
		e.vars[strings.ToLower(name)] = strings.ToLower(value)
	}
	return nil
}

// Var reads a non-hint session variable set via SetVar.
func (e *Engine) Var(name string) string { return e.vars[strings.ToLower(name)] }

func parseBool(v string) (bool, error) {
	switch strings.ToLower(v) {
	case "on", "true", "1", "yes":
		return true, nil
	case "off", "false", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("expected on/off, got %q", v)
}

// Explain renders a plan with the header line the shell prints.
func (e *Engine) Explain(n *planner.Node) string {
	return "QUERY PLAN\n" + strings.Repeat("-", 60) + "\n" + n.Explain()
}
