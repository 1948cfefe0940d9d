package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"bao/internal/catalog"
)

func intTable(t *testing.T, vals []int64) *Table {
	t.Helper()
	tab := NewTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}))
	for _, v := range vals {
		if err := tab.AppendRow(Row{IntVal(v)}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// TestValueSize pins Value at 32 bytes (Kind and Null share one word,
// because catalog.Type is a byte). Every row the executor materializes is
// a slice of these, so a field that regrows Value regrows every row.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntVal(1), IntVal(2), -1},
		{IntVal(2), IntVal(2), 0},
		{IntVal(3), IntVal(2), 1},
		{StrVal("a"), StrVal("b"), -1},
		{NullVal(catalog.Int), IntVal(0), -1},
		{NullVal(catalog.Int), NullVal(catalog.Int), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if NullVal(catalog.Int).Equal(NullVal(catalog.Int)) {
		t.Fatal("NULL = NULL must be false (SQL semantics)")
	}
	if !IntVal(5).Equal(IntVal(5)) {
		t.Fatal("5 = 5 must be true")
	}
}

func TestAppendRowValidation(t *testing.T) {
	tab := NewTable(catalog.MustTable("t",
		catalog.Column{Name: "a", Type: catalog.Int},
		catalog.Column{Name: "b", Type: catalog.Str}))
	if err := tab.AppendRow(Row{IntVal(1)}); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := tab.AppendRow(Row{StrVal("x"), StrVal("y")}); err == nil {
		t.Fatal("wrong type accepted")
	}
	if err := tab.AppendRow(Row{IntVal(1), NullVal(catalog.Str)}); err != nil {
		t.Fatalf("null value rejected: %v", err)
	}
	if tab.NumRows() != 1 {
		t.Fatalf("NumRows = %d, want 1", tab.NumRows())
	}
	r := tab.Row(0)
	if !r[1].Null || r[0].I != 1 {
		t.Fatalf("Row(0) = %v", r)
	}
}

func TestNumPages(t *testing.T) {
	tab := intTable(t, make([]int64, RowsPerPage*2+1))
	if got := tab.NumPages(); got != 3 {
		t.Fatalf("NumPages = %d, want 3", got)
	}
}

func TestIndexRange(t *testing.T) {
	tab := intTable(t, []int64{5, 1, 9, 3, 7, 3})
	ix, err := tab.BuildIndex(catalog.Index{Name: "ix", Table: "t", Column: "a"})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := IntVal(3), IntVal(7)
	a, b := ix.Range(&lo, &hi)
	// Values in [3,7]: 3, 3, 5, 7 → 4 entries.
	if b-a != 4 {
		t.Fatalf("Range(3,7) spans %d entries, want 4", b-a)
	}
	for p := a; p < b; p++ {
		v := tab.Cols[0].Value(int(ix.RowIDs[p]))
		if v.I < 3 || v.I > 7 {
			t.Fatalf("row %d value %d outside range", ix.RowIDs[p], v.I)
		}
	}
	// Open-ended ranges.
	if a, b := ix.Range(nil, nil); b-a != 6 {
		t.Fatalf("full range spans %d, want 6", b-a)
	}
	v10 := IntVal(10)
	if a, b := ix.Range(&v10, nil); b-a != 0 {
		t.Fatalf("empty range spans %d, want 0", b-a)
	}
}

// Property: for random data and random bounds, every row id returned by
// Range satisfies the bounds and every satisfying row is returned.
func TestIndexRangeComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(50))
		}
		tab := NewTable(catalog.MustTable("t", catalog.Column{Name: "a", Type: catalog.Int}))
		for _, v := range vals {
			tab.AppendRow(Row{IntVal(v)})
		}
		ix, _ := tab.BuildIndex(catalog.Index{Name: "ix", Table: "t", Column: "a"})
		lo := IntVal(int64(rng.Intn(50)))
		hi := IntVal(lo.I + int64(rng.Intn(20)))
		a, b := ix.Range(&lo, &hi)
		got := make(map[int32]bool)
		for p := a; p < b; p++ {
			id := ix.RowIDs[p]
			if vals[id] < lo.I || vals[id] > hi.I {
				return false
			}
			got[id] = true
		}
		want := 0
		for i, v := range vals {
			if v >= lo.I && v <= hi.I {
				want++
				if !got[int32(i)] {
					return false
				}
			}
		}
		return want == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDatabaseLookup(t *testing.T) {
	db := NewDatabase()
	tab := intTable(t, []int64{1})
	db.AddTable(tab)
	if _, ok := db.Table("T"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	db.DropTable("t")
	if _, ok := db.Table("t"); ok {
		t.Fatal("DropTable failed")
	}
}
