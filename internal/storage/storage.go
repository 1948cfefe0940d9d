// Package storage holds tuple data: columnar table storage, row access,
// and sorted single-column indexes. Page geometry is defined here so the
// buffer pool, executor, and cost model agree on how many pages a scan
// touches.
package storage

import (
	"fmt"
	"sort"

	"bao/internal/catalog"
)

// RowsPerPage fixes the page geometry: how many heap rows fit on one page.
// With ~8 KB pages and ~100-byte synthetic rows this is roughly
// PostgreSQL-like; all I/O accounting is in units of these pages.
const RowsPerPage = 64

// IndexEntriesPerPage is the fan-out of index leaf pages; index entries are
// narrower than heap rows, which is what makes index-only scans cheap.
const IndexEntriesPerPage = 256

// Value is a single column value. Kind discriminates the payload.
type Value struct {
	Kind catalog.Type
	Null bool
	I    int64
	S    string
}

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{Kind: catalog.Int, I: i} }

// StrVal makes a string value.
func StrVal(s string) Value { return Value{Kind: catalog.Str, S: s} }

// NullVal makes a typed NULL.
func NullVal(t catalog.Type) Value { return Value{Kind: t, Null: true} }

// Compare orders two values of the same kind: -1, 0, or +1. NULLs sort
// first. Comparing values of different kinds panics — the planner's type
// checking must prevent it.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		panic(fmt.Sprintf("storage: comparing %v to %v", v.Kind, o.Kind))
	}
	switch {
	case v.Null && o.Null:
		return 0
	case v.Null:
		return -1
	case o.Null:
		return 1
	}
	if v.Kind == catalog.Int {
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		}
		return 0
	}
	switch {
	case v.S < o.S:
		return -1
	case v.S > o.S:
		return 1
	}
	return 0
}

// Equal reports value equality (NULL never equals anything, matching SQL
// join semantics).
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return false
	}
	return v.Kind == o.Kind && v.Compare(o) == 0
}

// String renders the value for shell output.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	if v.Kind == catalog.Int {
		return fmt.Sprintf("%d", v.I)
	}
	return v.S
}

// Row is a tuple of values. A row is immutable once built: nothing may
// write to a row it did not create. The executor passes row ids between
// its operators and builds rows only where values must be owned: the
// result rows it returns, and an aggregate's output rows, which the
// operators above the aggregate read in place by index. Rows the executor
// returns stay valid after later runs on the same Executor, and their
// capacity equals their length, so appending to one copies instead of
// writing into a neighbouring row's values.
type Row []Value

// Column is columnar storage for one column.
type Column struct {
	Kind  catalog.Type
	Ints  []int64
	Strs  []string
	Nulls []bool // nil when no NULLs present
}

// Len returns the number of values stored.
func (c *Column) Len() int {
	if c.Kind == catalog.Int {
		return len(c.Ints)
	}
	return len(c.Strs)
}

// Value materializes row i of the column.
func (c *Column) Value(i int) Value {
	if c.Nulls != nil && c.Nulls[i] {
		return NullVal(c.Kind)
	}
	if c.Kind == catalog.Int {
		return IntVal(c.Ints[i])
	}
	return StrVal(c.Strs[i])
}

// Append adds a value, tracking NULLs lazily.
func (c *Column) Append(v Value) {
	if v.Null {
		if c.Nulls == nil {
			c.Nulls = make([]bool, c.Len())
		}
	}
	if c.Nulls != nil {
		c.Nulls = append(c.Nulls, v.Null)
	}
	if c.Kind == catalog.Int {
		c.Ints = append(c.Ints, v.I)
	} else {
		c.Strs = append(c.Strs, v.S)
	}
}

// Table is the stored form of a table: metadata plus columnar data and any
// secondary indexes built over it.
type Table struct {
	Meta    *catalog.Table
	Cols    []*Column
	indexes map[string]*Index // by column name (lower-case not needed: catalog canonicalizes)
}

// NewTable allocates empty storage for a schema.
func NewTable(meta *catalog.Table) *Table {
	t := &Table{Meta: meta, indexes: make(map[string]*Index)}
	for _, c := range meta.Columns {
		t.Cols = append(t.Cols, &Column{Kind: c.Type})
	}
	return t
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return t.Cols[0].Len()
}

// NumPages returns the heap page count the table occupies.
func (t *Table) NumPages() int {
	return (t.NumRows() + RowsPerPage - 1) / RowsPerPage
}

// AppendRow adds a tuple; the row must match the schema arity.
func (t *Table) AppendRow(r Row) error {
	if len(r) != len(t.Cols) {
		return fmt.Errorf("storage: row arity %d != table %s arity %d", len(r), t.Meta.Name, len(t.Cols))
	}
	for i, v := range r {
		if !v.Null && v.Kind != t.Cols[i].Kind {
			return fmt.Errorf("storage: column %s.%s expects %v, got %v",
				t.Meta.Name, t.Meta.Columns[i].Name, t.Cols[i].Kind, v.Kind)
		}
		t.Cols[i].Append(v)
	}
	return nil
}

// Row materializes tuple i.
func (t *Table) Row(i int) Row {
	r := make(Row, len(t.Cols))
	for c, col := range t.Cols {
		r[c] = col.Value(i)
	}
	return r
}

// Index is a sorted secondary index over one column: row IDs ordered by key
// value. Lookups are binary searches; range scans walk a contiguous span.
type Index struct {
	Meta   catalog.Index
	Col    *Column
	ColPos int
	RowIDs []int32 // row ids sorted by key
}

// BuildIndex sorts the column and attaches the index to the table.
func (t *Table) BuildIndex(meta catalog.Index) (*Index, error) {
	pos := t.Meta.ColumnIndex(meta.Column)
	if pos == -1 {
		return nil, fmt.Errorf("storage: index %s: no column %s in %s", meta.Name, meta.Column, t.Meta.Name)
	}
	col := t.Cols[pos]
	ids := make([]int32, col.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.SliceStable(ids, func(a, b int) bool {
		return col.Value(int(ids[a])).Compare(col.Value(int(ids[b]))) < 0
	})
	ix := &Index{Meta: meta, Col: col, ColPos: pos, RowIDs: ids}
	t.indexes[meta.Column] = ix
	return ix, nil
}

// Index returns the index on the named column, if built.
func (t *Table) Index(column string) (*Index, bool) {
	ix, ok := t.indexes[column]
	return ix, ok
}

// NumPages returns the leaf page count of the index.
func (ix *Index) NumPages() int {
	n := len(ix.RowIDs)
	if n == 0 {
		return 1
	}
	return (n + IndexEntriesPerPage - 1) / IndexEntriesPerPage
}

// Range returns the [lo, hi) span of positions in RowIDs whose key value v
// satisfies low <= v <= high (inclusive bounds; pass nil for an open side).
func (ix *Index) Range(low, high *Value) (int, int) {
	n := len(ix.RowIDs)
	lo := 0
	if low != nil {
		lo = sort.Search(n, func(i int) bool {
			return ix.Col.Value(int(ix.RowIDs[i])).Compare(*low) >= 0
		})
	}
	hi := n
	if high != nil {
		hi = sort.Search(n, func(i int) bool {
			return ix.Col.Value(int(ix.RowIDs[i])).Compare(*high) > 0
		})
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Database is the full stored database: named tables.
type Database struct {
	tables map[string]*Table
}

// NewDatabase returns an empty database.
func NewDatabase() *Database { return &Database{tables: make(map[string]*Table)} }

// AddTable registers table storage (replacing any previous version).
func (d *Database) AddTable(t *Table) { d.tables[lower(t.Meta.Name)] = t }

// DropTable removes a table's storage.
func (d *Database) DropTable(name string) { delete(d.tables, lower(name)) }

// Table returns the named table's storage.
func (d *Database) Table(name string) (*Table, bool) {
	t, ok := d.tables[lower(name)]
	return t, ok
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
