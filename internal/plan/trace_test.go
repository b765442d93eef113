package plan

import (
	"strings"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// TestRunTracedAttributesWork checks that the span tree RunTraced
// records attributes the query's work to its operators: one span per
// operator and phase in pre-order, self counters that sum to the query
// total, and an EXPLAIN ANALYZE rendering with one row per span.
func TestRunTracedAttributesWork(t *testing.T) {
	cat := testCatalog()
	node := &GroupBy{
		Input: &HashJoin{
			Build:     &Scan{Table: "cust"},
			Probe:     &Scan{Table: "orders", Pred: exec.CmpF{Column: "o_total", Op: exec.Gt, V: 30}},
			BuildKeys: []string{"c_id"},
			ProbeKeys: []string{"o_cust"},
			Kind:      Inner,
		},
		Keys: []string{"c_name"},
		Aggs: []AggSpec{{Name: "total", Func: Sum, Arg: exec.Col{Name: "o_total"}}},
	}
	plain, plainCtr, err := Run(cat, 1, node)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTraced(cat, 1, node)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := colstore.TablesIdentical(res.Table, plain); !ok {
		t.Fatalf("traced result diverges from plain run: %s", why)
	}
	if res.Counters.TuplesScanned != plainCtr.TuplesScanned ||
		res.Counters.SeqBytes != plainCtr.SeqBytes {
		t.Errorf("traced counters diverge: %+v vs %+v", res.Counters, plainCtr)
	}

	type row struct {
		depth int
		sp    *obs.Span
	}
	var spans []row
	res.Root.Walk(func(sp *obs.Span, depth int) { spans = append(spans, row{depth, sp}) })
	out := obs.ExplainAnalyze(res.Root, obs.ExplainOptions{MaskWall: true})

	// One span per operator and phase: groupby, join, 2 scans, the
	// join's build and probe phases, and 3 gathers (filtered scan, and
	// the inner join's two output gathers).
	if len(spans) != 9 {
		t.Fatalf("spans = %d, want 9:\n%s", len(spans), out)
	}
	for _, label := range []string{"build [c_id]", "probe [o_cust]"} {
		found := false
		for _, r := range spans {
			if r.sp.Label == label {
				found = true
			}
		}
		if !found {
			t.Errorf("missing %q phase span:\n%s", label, out)
		}
	}
	// Pre-order: the root is first and has depth 0.
	if spans[0].depth != 0 || !strings.Contains(spans[0].sp.Label, "group by") {
		t.Errorf("root span wrong: depth %d label %q", spans[0].depth, spans[0].sp.Label)
	}
	// Self (children-subtracted) counters sum to the query total.
	var sum int64
	for _, r := range spans {
		if r.sp.Rows < 0 || r.sp.SelfWall() < 0 {
			t.Errorf("negative self measurement in %q: rows %d wall %v", r.sp.Label, r.sp.Rows, r.sp.SelfWall())
		}
		sum += r.sp.SelfCounters().TuplesScanned
	}
	if sum != res.Counters.TuplesScanned {
		t.Errorf("self TuplesScanned sum %d != total %d", sum, res.Counters.TuplesScanned)
	}
	// The rendering has a header, one line per span, and a total line.
	if got := strings.Count(out, "\n"); got != len(spans)+2 {
		t.Errorf("rendering has %d lines, want %d:\n%s", got, len(spans)+2, out)
	}
	if !strings.Contains(out, "scan orders") {
		t.Errorf("rendering missing scan label:\n%s", out)
	}
}

func TestRunTracedErrorPropagates(t *testing.T) {
	cat := testCatalog()
	if _, err := RunTraced(cat, 1, &Scan{Table: "missing"}); err == nil {
		t.Error("traced run of bad plan should error")
	}
}
