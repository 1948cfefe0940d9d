// Package catalog defines schemas: tables, columns, types, indexes, and
// foreign keys. The catalog is purely metadata; tuple storage lives in
// package storage and statistics in package stats.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Type is a column type. The synthetic workloads use integers for keys and
// measures and strings for categorical attributes. It is one byte wide so
// storage.Value packs Kind and Null into a single word (32 bytes per value,
// not 40 — pinned in storage_test.go).
type Type uint8

// Column types.
const (
	Int Type = iota
	Str
)

// String renders the type name as the shell's DESCRIBE output shows it.
func (t Type) String() string {
	switch t {
	case Int:
		return "INT"
	case Str:
		return "TEXT"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column is a named, typed table column.
type Column struct {
	Name string
	Type Type
}

// Table is a table schema.
type Table struct {
	Name    string
	Columns []Column
	byName  map[string]int
}

// NewTable builds a table schema, validating column-name uniqueness.
func NewTable(name string, cols ...Column) (*Table, error) {
	t := &Table{Name: name, Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		if _, dup := t.byName[lc]; dup {
			return nil, fmt.Errorf("catalog: table %s: duplicate column %s", name, c.Name)
		}
		t.byName[lc] = i
	}
	return t, nil
}

// MustTable is NewTable that panics on error, for static schema literals.
func MustTable(name string, cols ...Column) *Table {
	t, err := NewTable(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	i, ok := t.byName[strings.ToLower(name)]
	if !ok {
		return -1
	}
	return i
}

// Index describes a secondary index over a single column. Width reflects
// the assumption that index entries are narrower than heap rows, which is
// what makes index-only scans cheaper.
type Index struct {
	Name   string
	Table  string
	Column string
	Unique bool
}

// ForeignKey records a key relationship used by the workload generators and
// the ComSys-grade estimator (join-cardinality reasoning).
type ForeignKey struct {
	Table, Column       string
	RefTable, RefColumn string
}

// Schema is a complete database schema.
type Schema struct {
	tables  map[string]*Table
	indexes map[string][]Index // by table (lower-case)
	fks     []ForeignKey
	// version counts DDL mutations (AddTable, DropTable, AddIndex).
	// Caches keyed on schema shape — e.g. the plan cache, whose stored
	// plans embed index choices — compare it to detect staleness without
	// diffing the catalog.
	version atomic.Uint64
}

// NewSchema returns an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: make(map[string]*Table), indexes: make(map[string][]Index)}
}

// AddTable registers a table schema; replacing an existing table drops its
// indexes (used by the Corp schema-change experiment).
func (s *Schema) AddTable(t *Table) {
	key := strings.ToLower(t.Name)
	s.tables[key] = t
	s.version.Add(1)
}

// DropTable removes a table and its indexes.
func (s *Schema) DropTable(name string) {
	key := strings.ToLower(name)
	delete(s.tables, key)
	delete(s.indexes, key)
	s.version.Add(1)
}

// Version returns the DDL mutation counter: it advances on every
// AddTable, DropTable, and AddIndex, so two equal readings bracket a
// schema that did not change shape in between.
func (s *Schema) Version() uint64 { return s.version.Load() }

// Table looks up a table schema by name (case-insensitive).
func (s *Schema) Table(name string) (*Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns all table schemas sorted by name for deterministic
// iteration.
func (s *Schema) Tables() []*Table {
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers an index, validating that the table and column exist.
func (s *Schema) AddIndex(ix Index) error {
	t, ok := s.Table(ix.Table)
	if !ok {
		return fmt.Errorf("catalog: index %s references unknown table %s", ix.Name, ix.Table)
	}
	if t.ColumnIndex(ix.Column) == -1 {
		return fmt.Errorf("catalog: index %s references unknown column %s.%s", ix.Name, ix.Table, ix.Column)
	}
	key := strings.ToLower(ix.Table)
	s.indexes[key] = append(s.indexes[key], ix)
	s.version.Add(1)
	return nil
}

// Indexes returns the indexes on a table.
func (s *Schema) Indexes(table string) []Index {
	return s.indexes[strings.ToLower(table)]
}

// IndexOn returns the index covering table.column, if any.
func (s *Schema) IndexOn(table, column string) (Index, bool) {
	for _, ix := range s.indexes[strings.ToLower(table)] {
		if strings.EqualFold(ix.Column, column) {
			return ix, true
		}
	}
	return Index{}, false
}

// AddForeignKey records a foreign key.
func (s *Schema) AddForeignKey(fk ForeignKey) { s.fks = append(s.fks, fk) }

// ForeignKeys returns all recorded foreign keys.
func (s *Schema) ForeignKeys() []ForeignKey { return s.fks }
