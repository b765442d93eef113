package plan

import (
	"fmt"
	"math/rand"
	"testing"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// groupInput builds a table t(k1, k2, v, iv) whose key columns come from
// keys; v and iv are seeded pseudo-random payloads.
func groupInput(n int, keys func(i int) (int64, int64)) *colstore.Table {
	rng := rand.New(rand.NewSource(int64(n)))
	b := colstore.NewTableBuilder("t", colstore.Schema{
		{Name: "k1", Type: colstore.Int64},
		{Name: "k2", Type: colstore.Int64},
		{Name: "v", Type: colstore.Float64},
		{Name: "iv", Type: colstore.Int64},
	})
	for i := 0; i < n; i++ {
		k1, k2 := keys(i)
		b.Int(0, k1)
		b.Int(1, k2)
		b.Float(2, rng.NormFloat64()*1e3)
		b.Int(3, rng.Int63n(1<<20)-1<<19)
		b.EndRow()
	}
	return b.Build()
}

// allAggsGroupBy groups t by keys under every aggregate function.
func allAggsGroupBy(keys ...string) *GroupBy {
	return &GroupBy{
		Input: &Scan{Table: "t"},
		Keys:  keys,
		Aggs: []AggSpec{
			{Name: "n", Func: Count},
			{Name: "s", Func: Sum, Arg: exec.Col{Name: "v"}},
			{Name: "a", Func: Avg, Arg: exec.Col{Name: "v"}},
			{Name: "lo", Func: Min, Arg: exec.Col{Name: "v"}},
			{Name: "hi", Func: Max, Arg: exec.Col{Name: "v"}},
			{Name: "si", Func: SumI, Arg: exec.Col{Name: "iv"}},
		},
	}
}

// TestRadixGroupByMergeOrderAdversarial pins the radix path's group
// order and float association against the direct path on inputs chosen
// to stress the first-row merge: every row its own group in descending
// key order, one group, first rows interleaved across partitions, and a
// fan-out that leaves almost every partition empty.
func TestRadixGroupByMergeOrderAdversarial(t *testing.T) {
	const n = 20000
	cases := []struct {
		name string
		keys func(i int) (int64, int64)
		by   []string
	}{
		{"unique-reverse", func(i int) (int64, int64) { return int64(n - i), 0 }, []string{"k1"}},
		{"single-group", func(i int) (int64, int64) { return 7, 7 }, []string{"k1"}},
		{"interleaved", func(i int) (int64, int64) { return int64(i % 997), 0 }, []string{"k1"}},
		{"interleaved-two-keys", func(i int) (int64, int64) { return int64(i % 101), int64(i % 103) }, []string{"k1", "k2"}},
		{"mostly-empty-partitions", func(i int) (int64, int64) { return int64(i % 3), 0 }, []string{"k1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := memCatalog{"t": groupInput(n, tc.keys)}
			node := allAggsGroupBy(tc.by...)
			run := func(workers int, llc int64) (*colstore.Table, *exec.Counters) {
				ctx := &Context{Cat: cat, Ctr: &exec.Counters{}, Workers: workers,
					MinParallelRows: 1, MorselRows: 1024, LLCBytes: llc}
				out, err := node.Execute(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return out, ctx.Ctr
			}
			want, dctr := run(1, -1)
			if dctr.PartitionBytes != 0 {
				t.Fatal("direct run partitioned")
			}
			for _, w := range []int{1, 2, 4, 8} {
				// A 2-byte budget forces the radix path at its widest
				// fan-out for the estimated group count.
				got, ctr := run(w, 2)
				if ctr.PartitionBytes == 0 {
					t.Fatalf("workers=%d: radix path not taken", w)
				}
				if ok, diff := colstore.TablesIdentical(want, got); !ok {
					t.Fatalf("workers=%d: radix differs from direct: %s", w, diff)
				}
			}
		})
	}
}

// TestRadixGroupByMergeCharge pins the first-row merge's cost charge:
// one random access per group for the scatter, and the slot array
// streamed twice (zero fill and sweep).
func TestRadixGroupByMergeCharge(t *testing.T) {
	slot := make([]int64, 10)
	var ctr exec.Counters
	// Partition 0 holds groups 0,1,2 first seen at rows 1,3,8; partition
	// 1 holds groups 0,1 first seen at rows 0,9.
	scatterFirstRows(slot, 0, []int32{0, 1, 0, 2}, []int32{1, 3, 4, 8}, &ctr)
	scatterFirstRows(slot, 1, []int32{0, 0, 1}, []int32{0, 2, 9}, &ctr)
	if ctr.RandomAccesses != 5 {
		t.Fatalf("scatter random accesses = %d, want 5 (one per group)", ctr.RandomAccesses)
	}
	refs, firstRow := sweepFirstRows(slot, 5, &ctr)
	if ctr.SeqBytes != 2*8*10 {
		t.Fatalf("sweep sequential bytes = %d, want %d (fill + sweep)", ctr.SeqBytes, 2*8*10)
	}
	if ctr.RandomAccesses != 5 {
		t.Fatalf("sweep charged random accesses: %d", ctr.RandomAccesses)
	}
	wantRows := []int32{0, 1, 3, 8, 9}
	wantRefs := [][2]int32{{1, 0}, {0, 0}, {0, 1}, {0, 2}, {1, 1}}
	if len(refs) != len(wantRefs) || len(firstRow) != len(wantRows) {
		t.Fatalf("got %d refs, %d rows; want 5", len(refs), len(firstRow))
	}
	for i := range wantRows {
		p, lg := unpackGroupRef(refs[i])
		if firstRow[i] != wantRows[i] || p != wantRefs[i][0] || lg != wantRefs[i][1] {
			t.Errorf("group %d: row %d (part %d, lg %d); want row %d (part %d, lg %d)",
				i, firstRow[i], p, lg, wantRows[i], wantRefs[i][0], wantRefs[i][1])
		}
	}
}

// BenchmarkRadixGroupByHighCardinality times the forced-radix group-by
// on 600K rows at G/N of 1, 1/4 and 1/64, so the first-row merge can be
// measured without running whole queries.
func BenchmarkRadixGroupByHighCardinality(b *testing.B) {
	const n = 600_000
	for _, div := range []int{1, 4, 64} {
		perm := rand.New(rand.NewSource(1)).Perm(n)
		groups := n / div
		cat := memCatalog{"t": groupInput(n, func(i int) (int64, int64) {
			return int64(perm[i] % groups), 0
		})}
		node := &GroupBy{
			Input: &Scan{Table: "t"},
			Keys:  []string{"k1"},
			Aggs: []AggSpec{
				{Name: "n", Func: Count},
				{Name: "s", Func: Sum, Arg: exec.Col{Name: "v"}},
			},
		}
		b.Run(fmt.Sprintf("rows-per-group=%d", div), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx := &Context{Cat: cat, Ctr: &exec.Counters{}, Workers: 2, LLCBytes: 1 << 14}
				if _, err := node.Execute(ctx); err != nil {
					b.Fatal(err)
				}
				if ctx.Ctr.PartitionBytes == 0 {
					b.Fatal("radix path not taken")
				}
			}
		})
	}
}
