package main

import (
	"fmt"
	"math"

	"wimpi/internal/colstore"
)

// matchReference compares an engine answer with the TPC-H reference
// implementation's rows, in order. Floats agree within 1e-6 absolute or
// 1e-9 relative, the rule of the engine's own reference tests; every
// other value must be equal.
func matchReference(t *colstore.Table, want [][]any) error {
	if t.NumRows() != len(want) {
		return fmt.Errorf("%d rows, reference has %d", t.NumRows(), len(want))
	}
	for r, row := range want {
		if t.NumCols() != len(row) {
			return fmt.Errorf("%d columns, reference has %d", t.NumCols(), len(row))
		}
		for c, w := range row {
			got, err := cell(t.Col(c), r)
			if err != nil {
				return fmt.Errorf("column %s: %w", t.Schema[c].Name, err)
			}
			if !cellsEqual(got, w) {
				return fmt.Errorf("row %d column %s: engine %v, reference %v", r, t.Schema[c].Name, got, w)
			}
		}
	}
	return nil
}

func cell(col colstore.Column, r int) (any, error) {
	switch c := col.(type) {
	case *colstore.Int64s:
		return c.V[r], nil
	case *colstore.Float64s:
		return c.V[r], nil
	case *colstore.Dates:
		return c.V[r], nil
	case *colstore.Strings:
		return c.Value(r), nil
	case *colstore.Bools:
		return c.V[r], nil
	}
	return nil, fmt.Errorf("unexpected column type %T", col)
}

// cellsEqual compares numbers numerically across int64 and float64,
// since some reference queries sum 0/1 floats where the engine counts.
func cellsEqual(a, b any) bool {
	af, aNum := number(a)
	bf, bNum := number(b)
	if aNum && bNum {
		ai, aInt := a.(int64)
		bi, bInt := b.(int64)
		if aInt && bInt {
			return ai == bi
		}
		return floatsClose(af, bf)
	}
	return a == b
}

func number(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func floatsClose(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-6 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// firstRuns remembers each query's first answer; every later run must
// be byte-identical to it.
type firstRuns map[any]*colstore.Table

// check records t as the first answer for key, or compares it with the
// first answer.
func (f firstRuns) check(key any, t *colstore.Table) error {
	first, ok := f[key]
	if !ok {
		f[key] = t
		return nil
	}
	if same, where := colstore.TablesIdentical(first, t); !same {
		return fmt.Errorf("answer differs from its first run: %s", where)
	}
	return nil
}
