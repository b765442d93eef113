package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// Pred is a filter predicate. Sel narrows an input selection vector (nil
// means all rows) to the rows of t that satisfy the predicate, returning
// an ascending selection vector whenever the input is ascending.
type Pred interface {
	// Sel evaluates the predicate.
	Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error)
	// String renders the predicate for EXPLAIN output.
	String() string
}

// CmpI compares an int64 column against a literal.
type CmpI struct {
	// Column names the column; Op and V give the comparison.
	Column string
	Op     CmpOp
	V      int64
}

// Sel implements Pred.
func (p CmpI) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := t.ColByName(p.Column)
	if err != nil {
		return nil, err
	}
	switch ic := c.(type) {
	case *colstore.Int64s:
		return SelInt64(ic, p.Op, p.V, in, ctr), nil
	case *colstore.RLEInt64:
		return SelRLEInt64(ic, p.Op, p.V, in, ctr), nil
	default:
		return nil, fmt.Errorf("exec: %s is %s, want int64", p.Column, c.Type())
	}
}

// String implements Pred.
func (p CmpI) String() string { return fmt.Sprintf("%s %s %d", p.Column, p.Op, p.V) }

// InI selects rows whose int64 column is any of Vals (SQL IN over
// integers).
type InI struct {
	// Column names the int64 column; Vals is the IN list.
	Column string
	Vals   []int64
}

// Sel implements Pred.
func (p InI) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := t.ColByName(p.Column)
	if err != nil {
		return nil, err
	}
	switch ic := c.(type) {
	case *colstore.Int64s:
		return SelInt64In(ic, p.Vals, in, ctr), nil
	case *colstore.RLEInt64:
		return SelRLEInt64In(ic, p.Vals, in, ctr), nil
	default:
		return nil, fmt.Errorf("exec: %s is %s, want int64", p.Column, c.Type())
	}
}

// String implements Pred.
func (p InI) String() string { return fmt.Sprintf("%s in %d", p.Column, p.Vals) }

// SelInt64In selects rows whose dense int64 value is in vals.
func SelInt64In(c *colstore.Int64s, vals []int64, in []int32, ctr *Counters) []int32 {
	want := make(map[int64]struct{}, len(vals))
	for _, v := range vals {
		want[v] = struct{}{}
	}
	ctr.IntOps += int64(len(vals))
	if in == nil {
		chargeSel(ctr, len(c.V), 8, true)
		out := make([]int32, 0, len(c.V)/2)
		for i, v := range c.V {
			if _, ok := want[v]; ok {
				out = append(out, int32(i))
			}
		}
		return out
	}
	chargeSel(ctr, len(in), 8, false)
	out := make([]int32, 0, len(in))
	for _, i := range in {
		if _, ok := want[c.V[i]]; ok {
			out = append(out, i)
		}
	}
	return out
}

// CmpF compares a float64 column against a literal.
type CmpF struct {
	// Column names the column; Op and V give the comparison.
	Column string
	Op     CmpOp
	V      float64
}

// Sel implements Pred.
func (p CmpF) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := t.ColByName(p.Column)
	if err != nil {
		return nil, err
	}
	fc, ok := c.(*colstore.Float64s)
	if !ok {
		return nil, fmt.Errorf("exec: %s is %s, want float64", p.Column, c.Type())
	}
	return SelFloat64(fc, p.Op, p.V, in, ctr), nil
}

// String implements Pred.
func (p CmpF) String() string { return fmt.Sprintf("%s %s %g", p.Column, p.Op, p.V) }

// CmpD compares a date column against a literal day number.
type CmpD struct {
	// Column names the column; Op and V give the comparison.
	Column string
	Op     CmpOp
	V      int32
}

// Sel implements Pred.
func (p CmpD) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := t.ColByName(p.Column)
	if err != nil {
		return nil, err
	}
	dc, ok := c.(*colstore.Dates)
	if !ok {
		return nil, fmt.Errorf("exec: %s is %s, want date", p.Column, c.Type())
	}
	return SelDate(dc, p.Op, p.V, in, ctr), nil
}

// String implements Pred.
func (p CmpD) String() string {
	return fmt.Sprintf("%s %s %s", p.Column, p.Op, colstore.FormatDate(p.V))
}

// DateRange selects rows with Lo <= column < Hi.
type DateRange struct {
	// Column names the date column; the window is [Lo, Hi).
	Column string
	Lo, Hi int32
}

// Sel implements Pred.
func (p DateRange) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := t.ColByName(p.Column)
	if err != nil {
		return nil, err
	}
	dc, ok := c.(*colstore.Dates)
	if !ok {
		return nil, fmt.Errorf("exec: %s is %s, want date", p.Column, c.Type())
	}
	return SelDateRange(dc, p.Lo, p.Hi, in, ctr), nil
}

// String implements Pred.
func (p DateRange) String() string {
	return fmt.Sprintf("%s in [%s, %s)", p.Column, colstore.FormatDate(p.Lo), colstore.FormatDate(p.Hi))
}

// FloatRange selects rows with Lo <= column <= Hi (SQL BETWEEN).
type FloatRange struct {
	// Column names the float column; the window is [Lo, Hi].
	Column string
	Lo, Hi float64
}

// Sel implements Pred.
func (p FloatRange) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	c, err := t.ColByName(p.Column)
	if err != nil {
		return nil, err
	}
	fc, ok := c.(*colstore.Float64s)
	if !ok {
		return nil, fmt.Errorf("exec: %s is %s, want float64", p.Column, c.Type())
	}
	return SelFloat64Range(fc, p.Lo, p.Hi, in, ctr), nil
}

// String implements Pred.
func (p FloatRange) String() string {
	return fmt.Sprintf("%s between %g and %g", p.Column, p.Lo, p.Hi)
}

// StrEq selects rows whose string column equals (or, with Negate, does
// not equal) V.
type StrEq struct {
	// Column names the string column; V is the literal.
	Column string
	V      string
	// Negate flips the predicate to <>.
	Negate bool
}

// Sel implements Pred.
func (p StrEq) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	sc, err := stringCol(t, p.Column)
	if err != nil {
		return nil, err
	}
	var mask []bool
	if p.Negate {
		mask = NeMask(sc.Dict, p.V, ctr)
	} else {
		mask = EqMask(sc.Dict, p.V)
	}
	return SelStrMask(sc, mask, in, ctr), nil
}

// String implements Pred.
func (p StrEq) String() string {
	op := "="
	if p.Negate {
		op = "<>"
	}
	return fmt.Sprintf("%s %s %q", p.Column, op, p.V)
}

// StrIn selects rows whose string column is any of Vals.
type StrIn struct {
	// Column names the string column; Vals is the IN list.
	Column string
	Vals   []string
}

// Sel implements Pred.
func (p StrIn) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	sc, err := stringCol(t, p.Column)
	if err != nil {
		return nil, err
	}
	return SelStrMask(sc, InMask(sc.Dict, ctr, p.Vals...), in, ctr), nil
}

// String implements Pred.
func (p StrIn) String() string { return fmt.Sprintf("%s in %q", p.Column, p.Vals) }

// Like selects rows whose string column matches (or, with Negate, does
// not match) a SQL LIKE pattern.
type Like struct {
	// Column names the string column; Pattern is the LIKE pattern.
	Column  string
	Pattern string
	// Negate flips the predicate to NOT LIKE.
	Negate bool
}

// Sel implements Pred.
func (p Like) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	sc, err := stringCol(t, p.Column)
	if err != nil {
		return nil, err
	}
	var mask []bool
	if p.Negate {
		mask = NotLikeMask(sc.Dict, p.Pattern, ctr)
	} else {
		mask = LikeMask(sc.Dict, p.Pattern, ctr)
	}
	return SelStrMask(sc, mask, in, ctr), nil
}

// String implements Pred.
func (p Like) String() string {
	op := "like"
	if p.Negate {
		op = "not like"
	}
	return fmt.Sprintf("%s %s %q", p.Column, op, p.Pattern)
}

// ColCmpD compares two date columns row-wise.
type ColCmpD struct {
	// A and B name the date columns; Op gives the comparison A Op B.
	A, B string
	Op   CmpOp
}

// Sel implements Pred.
func (p ColCmpD) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	ac, err := t.ColByName(p.A)
	if err != nil {
		return nil, err
	}
	bc, err := t.ColByName(p.B)
	if err != nil {
		return nil, err
	}
	ad, aok := ac.(*colstore.Dates)
	bd, bok := bc.(*colstore.Dates)
	if !aok || !bok {
		return nil, fmt.Errorf("exec: ColCmpD needs date columns, got %s and %s", ac.Type(), bc.Type())
	}
	return SelColCmpDates(ad, bd, p.Op, in, ctr), nil
}

// String implements Pred.
func (p ColCmpD) String() string { return fmt.Sprintf("%s %s %s", p.A, p.Op, p.B) }

// And evaluates its children in order, each narrowing the previous
// selection, so the cheapest/most selective predicate should come first.
type And struct {
	// Preds are the conjuncts.
	Preds []Pred
}

// AndOf builds an And from its arguments.
func AndOf(ps ...Pred) Pred { return And{Preds: ps} }

// Sel implements Pred.
func (p And) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	sel := in
	for _, sub := range p.Preds {
		var err error
		sel, err = sub.Sel(t, sel, ctr)
		if err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			return sel, nil
		}
	}
	return sel, nil
}

// String implements Pred.
func (p And) String() string {
	s := "("
	for i, sub := range p.Preds {
		if i > 0 {
			s += " and "
		}
		s += sub.String()
	}
	return s + ")"
}

// Or evaluates its children against the same input and unions the
// results (TPC-H Q19's disjunction of conjunction blocks).
type Or struct {
	// Preds are the disjuncts.
	Preds []Pred
}

// OrOf builds an Or from its arguments.
func OrOf(ps ...Pred) Pred { return Or{Preds: ps} }

// Sel implements Pred.
func (p Or) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	var acc []int32
	for i, sub := range p.Preds {
		s, err := sub.Sel(t, in, ctr)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			acc = s
		} else {
			acc = SelUnion(acc, s, ctr)
		}
	}
	return acc, nil
}

// String implements Pred.
func (p Or) String() string {
	s := "("
	for i, sub := range p.Preds {
		if i > 0 {
			s += " or "
		}
		s += sub.String()
	}
	return s + ")"
}

// TruePred selects every input row. It is useful as a neutral element
// when composing predicates programmatically.
type TruePred struct{}

// Sel implements Pred.
func (TruePred) Sel(t *colstore.Table, in []int32, ctr *Counters) ([]int32, error) {
	if in != nil {
		return in, nil
	}
	return SelAll(t.NumRows()), nil
}

// String implements Pred.
func (TruePred) String() string { return "true" }

func stringCol(t *colstore.Table, name string) (*colstore.Strings, error) {
	c, err := t.ColByName(name)
	if err != nil {
		return nil, err
	}
	sc, ok := c.(*colstore.Strings)
	if !ok {
		return nil, fmt.Errorf("exec: %s is %s, want string", name, c.Type())
	}
	return sc, nil
}
