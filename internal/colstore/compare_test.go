package colstore

import (
	"math"
	"testing"
)

// mkTable builds a table or fails the test.
func mkTable(t *testing.T, name string, schema Schema, cols []Column) *Table {
	t.Helper()
	tab, err := NewTable(name, schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestTablesIdenticalEmptyTables(t *testing.T) {
	// Zero rows, some columns.
	a := mkTable(t, "e", Schema{{Name: "k", Type: Int64}}, []Column{&Int64s{V: []int64{}}})
	b := mkTable(t, "e", Schema{{Name: "k", Type: Int64}}, []Column{&Int64s{V: []int64{}}})
	if ok, why := TablesIdentical(a, b); !ok {
		t.Errorf("empty tables differ: %s", why)
	}
	// Zero columns entirely.
	c := mkTable(t, "none", Schema{}, nil)
	d := mkTable(t, "none", Schema{}, nil)
	if ok, why := TablesIdentical(c, d); !ok {
		t.Errorf("zero-column tables differ: %s", why)
	}
	// Empty vs non-empty is a shape mismatch.
	e := mkTable(t, "e", Schema{{Name: "k", Type: Int64}}, []Column{&Int64s{V: []int64{1}}})
	if ok, _ := TablesIdentical(a, e); ok {
		t.Error("0-row and 1-row tables compared identical")
	}
}

func TestTablesIdenticalColumnNameAndTypeMismatch(t *testing.T) {
	a := mkTable(t, "t", Schema{{Name: "x", Type: Int64}}, []Column{&Int64s{V: []int64{1}}})
	b := mkTable(t, "t", Schema{{Name: "y", Type: Int64}}, []Column{&Int64s{V: []int64{1}}})
	if ok, _ := TablesIdentical(a, b); ok {
		t.Error("differently named columns compared identical")
	}
	c := mkTable(t, "t", Schema{{Name: "x", Type: Float64}}, []Column{&Float64s{V: []float64{1}}})
	if ok, _ := TablesIdentical(a, c); ok {
		t.Error("int64 and float64 columns compared identical")
	}
}

func TestColumnsIdenticalFloatBitPatterns(t *testing.T) {
	nan := math.NaN()
	a := &Float64s{V: []float64{1.5, nan, 0}}
	b := &Float64s{V: []float64{1.5, nan, 0}}
	if ok, why := ColumnsIdentical(a, b); !ok {
		t.Errorf("bit-identical floats (incl. NaN) differ: %s", why)
	}
	// +0 and -0 are ==, but not bit-identical — the determinism suite
	// must treat them as different results.
	c := &Float64s{V: []float64{1.5, nan, math.Copysign(0, -1)}}
	if ok, _ := ColumnsIdentical(a, c); ok {
		t.Error("+0 and -0 compared identical despite differing bit patterns")
	}
}

func TestColumnsIdenticalDictionaryLayouts(t *testing.T) {
	// Same logical values, different dictionary code assignment.
	d1 := NewDict()
	s1 := &Strings{Codes: []int32{d1.Add("a"), d1.Add("b"), d1.Add("a")}, Dict: d1}
	d2 := NewDict()
	bCode := d2.Add("b") // reversed insertion order
	aCode := d2.Add("a")
	s2 := &Strings{Codes: []int32{aCode, bCode, aCode}, Dict: d2}
	if ok, why := ColumnsIdentical(s1, s2); !ok {
		t.Errorf("same values under different dict layouts differ: %s", why)
	}
	s3 := &Strings{Codes: []int32{aCode, aCode, aCode}, Dict: d2}
	if ok, _ := ColumnsIdentical(s1, s3); ok {
		t.Error("different string values compared identical")
	}
}

func TestColumnsIdenticalRLEVersusPlain(t *testing.T) {
	plain := &Int64s{V: []int64{7, 7, 7, 9, 9, 11}}
	rle := CompressInt64(plain)
	// RLE vs RLE.
	if ok, why := ColumnsIdentical(rle, CompressInt64(plain)); !ok {
		t.Errorf("identical RLE columns differ: %s", why)
	}
	// Encoding-agnostic: RLE vs the plain column it decodes to.
	if ok, why := ColumnsIdentical(rle, plain); !ok {
		t.Errorf("RLE vs plain with same values differ: %s", why)
	}
	if ok, why := ColumnsIdentical(plain, rle); !ok {
		t.Errorf("plain vs RLE with same values differ: %s", why)
	}
	other := &Int64s{V: []int64{7, 7, 7, 9, 9, 12}}
	if ok, _ := ColumnsIdentical(rle, other); ok {
		t.Error("RLE vs differing plain compared identical")
	}
	if ok, _ := ColumnsIdentical(rle, &Int64s{V: []int64{7, 7, 7}}); ok {
		t.Error("length mismatch compared identical")
	}
}

func TestColumnsIdenticalAcrossPackedEncodings(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	dense := &Int64s{V: vals}
	rle := CompressInt64(dense)
	for _, pair := range [][2]Column{{rle, dense}, {dense, rle}, {rle, CompressInt64(dense)}} {
		if ok, why := ColumnsIdentical(pair[0], pair[1]); !ok {
			t.Fatalf("%T vs %T: %s", pair[0], pair[1], why)
		}
	}
	other := &Int64s{V: []int64{3, 1, 4, 1, 5, 9, 2, 7}}
	if ok, _ := ColumnsIdentical(rle, other); ok {
		t.Fatal("differing columns reported identical")
	}
	shorter := &Int64s{V: vals[:7]}
	if ok, _ := ColumnsIdentical(rle, shorter); ok {
		t.Fatal("length mismatch reported identical")
	}
}
