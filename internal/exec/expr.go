package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// Expr is a row-parallel expression evaluated over all rows of a table,
// producing a new column. Expressions implement the computed attributes
// of TPC-H queries, e.g. l_extendedprice * (1 - l_discount).
type Expr interface {
	// Eval evaluates the expression over every row of t.
	Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error)
	// String renders the expression for EXPLAIN output.
	String() string
}

// Col references a column of the input table by name.
type Col struct {
	// Name is the referenced column name.
	Name string
}

// Eval implements Expr.
func (e Col) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	return t.ColByName(e.Name)
}

// String implements Expr.
func (e Col) String() string { return e.Name }

// ConstF is a float64 literal.
type ConstF struct {
	// V is the literal value.
	V float64
}

// Eval implements Expr. Materializing the constant column is charged
// like any other expression output (see Arith.Eval).
func (e ConstF) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	v := make([]float64, t.NumRows())
	for i := range v {
		v[i] = e.V
	}
	ctr.SeqBytes += int64(len(v)) * 8
	return &colstore.Float64s{V: v}, nil
}

// String implements Expr.
func (e ConstF) String() string { return fmt.Sprintf("%g", e.V) }

// ArithOp is an arithmetic operator.
type ArithOp uint8

// The arithmetic operators.
const (
	// AddOp is addition.
	AddOp ArithOp = iota
	// SubOp is subtraction.
	SubOp
	// MulOp is multiplication.
	MulOp
	// DivOp is division.
	DivOp
)

// String returns the operator's symbol.
func (op ArithOp) String() string {
	switch op {
	case AddOp:
		return "+"
	case SubOp:
		return "-"
	case MulOp:
		return "*"
	default:
		return "/"
	}
}

// Arith applies a binary arithmetic operator with float64 semantics.
// Integer operands are promoted to float64.
type Arith struct {
	// Op is the operator.
	Op ArithOp
	// L and R are the operands.
	L, R Expr
}

// Add returns l + r.
func Add(l, r Expr) Expr { return Arith{Op: AddOp, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Arith{Op: SubOp, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Arith{Op: MulOp, L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return Arith{Op: DivOp, L: l, R: r} }

// Eval implements Expr.
func (e Arith) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	lc, err := e.L.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	rc, err := e.R.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	lv, err := AsFloat64(lc, ctr)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: %w", e, err)
	}
	rv, err := AsFloat64(rc, ctr)
	if err != nil {
		return nil, fmt.Errorf("exec: %s: %w", e, err)
	}
	out := make([]float64, len(lv))
	switch e.Op {
	case AddOp:
		for i := range out {
			out[i] = lv[i] + rv[i]
		}
	case SubOp:
		for i := range out {
			out[i] = lv[i] - rv[i]
		}
	case MulOp:
		for i := range out {
			out[i] = lv[i] * rv[i]
		}
	case DivOp:
		for i := range out {
			out[i] = lv[i] / rv[i]
		}
	}
	ctr.FloatOps += int64(len(out))
	ctr.SeqBytes += int64(len(out)) * 8
	return &colstore.Float64s{V: out}, nil
}

// String implements Expr.
func (e Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

// YearExpr extracts the calendar year of a date column as int64.
type YearExpr struct {
	// Arg is the date-typed operand.
	Arg Expr
}

// Eval implements Expr.
func (e YearExpr) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	c, err := e.Arg.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	d, ok := c.(*colstore.Dates)
	if !ok {
		return nil, fmt.Errorf("exec: year() needs a date column, got %s", c.Type())
	}
	out := make([]int64, len(d.V))
	for i, v := range d.V {
		out[i] = int64(colstore.YearOf(v))
	}
	ctr.IntOps += int64(len(out)) * 4
	ctr.SeqBytes += int64(len(out)) * 8
	return &colstore.Int64s{V: out}, nil
}

// String implements Expr.
func (e YearExpr) String() string { return fmt.Sprintf("year(%s)", e.Arg) }

// CaseWhenF evaluates to Then where Pred holds and Else elsewhere, with
// float64 result semantics (TPC-H Q8, Q12, Q14).
type CaseWhenF struct {
	// Pred decides which branch each row takes.
	Pred Pred
	// Then and Else are the branch expressions.
	Then, Else Expr
}

// Eval implements Expr.
func (e CaseWhenF) Eval(t *colstore.Table, ctr *Counters) (colstore.Column, error) {
	sel, err := e.Pred.Sel(t, nil, ctr)
	if err != nil {
		return nil, err
	}
	thenC, err := e.Then.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	elseC, err := e.Else.Eval(t, ctr)
	if err != nil {
		return nil, err
	}
	tv, err := AsFloat64(thenC, ctr)
	if err != nil {
		return nil, err
	}
	ev, err := AsFloat64(elseC, ctr)
	if err != nil {
		return nil, err
	}
	out := make([]float64, t.NumRows())
	copy(out, ev)
	for _, i := range sel {
		out[i] = tv[i]
	}
	ctr.FloatOps += int64(len(out))
	ctr.SeqBytes += int64(len(out)) * 8
	return &colstore.Float64s{V: out}, nil
}

// String implements Expr.
func (e CaseWhenF) String() string {
	return fmt.Sprintf("case when <pred> then %s else %s end", e.Then, e.Else)
}

// AsFloat64 returns the column's values as a float64 slice, promoting
// int64. The result aliases the column's storage for float columns.
func AsFloat64(c colstore.Column, ctr *Counters) ([]float64, error) {
	switch v := c.(type) {
	case *colstore.Float64s:
		return v.V, nil
	case *colstore.Int64s:
		out := make([]float64, len(v.V))
		for i, x := range v.V {
			out[i] = float64(x)
		}
		ctr.IntOps += int64(len(out))
		return out, nil
	case *colstore.RLEInt64:
		iv, err := AsInt64(c, ctr)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(iv))
		for i, x := range iv {
			out[i] = float64(x)
		}
		ctr.IntOps += int64(len(out))
		return out, nil
	default:
		return nil, fmt.Errorf("exec: cannot treat %s column as float64", c.Type())
	}
}
