package exec

import (
	"testing"
	"testing/quick"

	"wimpi/internal/colstore"
)

func denseAndRLE(vals []uint8) (*colstore.Int64s, *colstore.RLEInt64) {
	v := make([]int64, len(vals))
	for i, x := range vals {
		v[i] = int64(x % 7)
	}
	d := &colstore.Int64s{V: v}
	return d, colstore.CompressInt64(d)
}

func TestSelRLEMatchesDenseProperty(t *testing.T) {
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	f := func(vals []uint8, opIdx, val uint8) bool {
		d, r := denseAndRLE(vals)
		op := ops[int(opIdx)%len(ops)]
		v := int64(val % 7)
		var c1, c2 Counters
		want := SelInt64(d, op, v, nil, &c1)
		got := SelRLEInt64(r, op, v, nil, &c2)
		if !equalSel(got, want) {
			return false
		}
		// When the data actually compresses, the RLE kernel must charge
		// fewer sequential bytes than the dense kernel; incompressible
		// data may legitimately charge slightly more.
		if r.NumRuns()*2 < r.Len() && c2.SeqBytes >= c1.SeqBytes {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelRLEWithSelectionVector(t *testing.T) {
	d, r := denseAndRLE([]uint8{1, 1, 3, 3, 3, 5, 1, 1, 2})
	var ctr Counters
	in := []int32{0, 2, 4, 6, 8}
	want := SelInt64(d, Ge, 2, in, &ctr)
	got := SelRLEInt64(r, Ge, 2, in, &ctr)
	if !equalSel(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestKeysFromRLEMatchesDense(t *testing.T) {
	f := func(vals []uint8, useSel bool) bool {
		d, r := denseAndRLE(vals)
		var c1, c2 Counters
		var sel []int32
		if useSel && len(vals) > 0 {
			for i := 0; i < len(vals); i += 2 {
				sel = append(sel, int32(i))
			}
		}
		want, err := KeysFromColumn(d, sel, &c1)
		if err != nil {
			return false
		}
		got, err := KeysFromColumn(r, sel, &c2)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpIPredOverRLE(t *testing.T) {
	d, r := denseAndRLE([]uint8{0, 0, 1, 1, 2, 2, 3, 3})
	denseT := colstore.MustNewTable("t", colstore.Schema{{Name: "k", Type: colstore.Int64}},
		[]colstore.Column{d})
	rleT := colstore.MustNewTable("t", colstore.Schema{{Name: "k", Type: colstore.Int64}},
		[]colstore.Column{r})
	var ctr Counters
	p := CmpI{Column: "k", Op: Gt, V: 1}
	want, err := p.Sel(denseT, nil, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Sel(rleT, nil, &ctr)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSel(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestInIPredAcrossEncodings(t *testing.T) {
	vals := []int64{3, 3, 3, 7, 7, 2, 9, 2, 2, 2}
	mk := func(c colstore.Column) *colstore.Table {
		return colstore.MustNewTable("t", colstore.Schema{{Name: "k", Type: colstore.Int64}}, []colstore.Column{c})
	}
	dense := &colstore.Int64s{V: vals}
	rle := colstore.CompressInt64(dense)
	cases := []struct {
		list []int64
		want []int32
	}{
		{[]int64{3, 9}, []int32{0, 1, 2, 6}},
		{[]int64{2}, []int32{5, 7, 8, 9}},
		{[]int64{100, -5}, nil}, // no value in the column
		{[]int64{7, 1 << 50}, []int32{3, 4}},
		{nil, nil},
	}
	for _, tc := range cases {
		for _, col := range []colstore.Column{dense, rle} {
			var c Counters
			got, err := InI{Column: "k", Vals: tc.list}.Sel(mk(col), nil, &c)
			if err != nil {
				t.Fatal(err)
			}
			if !equalSel(got, tc.want) {
				t.Fatalf("%T in %v: %v, want %v", col, tc.list, got, tc.want)
			}
			// Selective path agrees with intersecting the dense answer.
			in := []int32{1, 3, 6, 8}
			gotSel, err := InI{Column: "k", Vals: tc.list}.Sel(mk(col), in, &c)
			if err != nil {
				t.Fatal(err)
			}
			var wantSel []int32
			for _, i := range in {
				for _, w := range tc.want {
					if i == w {
						wantSel = append(wantSel, i)
					}
				}
			}
			if !equalSel(gotSel, wantSel) {
				t.Fatalf("%T in %v (sel): %v, want %v", col, tc.list, gotSel, wantSel)
			}
		}
	}
}

func TestAsInt64Encodings(t *testing.T) {
	vals := []int64{10, 10, 10, 999, -4, -4}
	dense := &colstore.Int64s{V: vals}
	rle := colstore.CompressInt64(dense)
	for _, col := range []colstore.Column{dense, rle} {
		var c Counters
		got, err := AsInt64(col, &c)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%T row %d: %d, want %d", col, i, got[i], vals[i])
			}
		}
	}
	if _, err := AsInt64(&colstore.Float64s{V: []float64{1}}, &Counters{}); err == nil {
		t.Fatal("float column must not convert")
	}
}
