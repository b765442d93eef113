package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

var (
	fixtureOnce sync.Once
	fixtureDS   *tpch.Dataset
)

// testDB builds a pool-backed engine over a small shared TPC-H
// dataset.
func testDB(t *testing.T, poolWorkers int) (*engine.DB, func()) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureDS = tpch.Generate(tpch.Config{SF: 0.01, Seed: 7})
	})
	pool := exec.NewPool(poolWorkers)
	db := engine.NewDB(engine.Config{Workers: poolWorkers, Pool: pool})
	fixtureDS.RegisterAll(db)
	return db, pool.Close
}

func testMix(t *testing.T) []MixEntry {
	t.Helper()
	var mix []MixEntry
	for _, n := range []int{1, 3, 6, 13} {
		q, err := tpch.Query(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, MixEntry{Name: "q" + string(rune('0'+n%10)), Plan: q})
	}
	return mix
}

// TestServeConcurrentClientsByteIdentical is the acceptance check: 64
// concurrent clients over one pooled engine, every result verified
// byte-identical to serial execution by RunLoad itself.
func TestServeConcurrentClientsByteIdentical(t *testing.T) {
	db, closePool := testDB(t, 4)
	defer closePool()
	s := New(Config{DB: db, MaxConcurrent: 8, MaxQueue: 64, CacheEntries: 16, Registry: obs.NewRegistry()})
	for i, name := range []string{"alpha", "beta", "gamma"} {
		s.SetTenant(TenantConfig{Name: name, Weight: 1 + i})
	}
	clients := 64
	if testing.Short() {
		clients = 16
	}
	rep, err := RunLoad(context.Background(), s, LoadConfig{
		Clients:          clients,
		QueriesPerClient: 4,
		Mix:              testMix(t),
		Tenants:          []string{"alpha", "beta", "gamma"},
		Seed:             11,
		Verify:           true,
	})
	if err != nil {
		t.Fatalf("load run: %v (report %+v)", err, rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d errors", rep.Errors)
	}
	if rep.Queries != clients*4 {
		t.Fatalf("ran %d queries, want %d", rep.Queries, clients*4)
	}
	if rep.QPS <= 0 || rep.P99MS < rep.P50MS {
		t.Fatalf("implausible report: %+v", rep)
	}
}

// TestServeOverload: with one execution slot and a one-deep queue, the
// first extra query waits and the second is shed with *OverloadError —
// not queued unboundedly, not failed some other way. The slot is pinned
// directly so the pressure is deterministic regardless of how the
// scheduler interleaves client goroutines.
func TestServeOverload(t *testing.T) {
	db, closePool := testDB(t, 1)
	defer closePool()
	s := New(Config{DB: db, MaxConcurrent: 1, MaxQueue: 1, Registry: obs.NewRegistry()})
	q := tpch.MustQuery(1)

	release, err := s.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// One query fits in the wait queue.
	queuedDone := make(chan error, 1)
	go func() {
		_, err := s.RunPlan(context.Background(), "burst", q)
		queuedDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the wait queue")
		}
		time.Sleep(time.Millisecond)
	}

	// The next is shed immediately.
	_, err = s.RunPlan(context.Background(), "burst", q)
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("err = %v, want *OverloadError", err)
	}
	if over.Limit != 1 || over.Queued < 1 {
		t.Fatalf("overload detail = %+v", over)
	}

	// Freeing the slot lets the queued query run to completion.
	release()
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued query: %v", err)
	}
}

// TestServeResultCache: a repeated plan hits the cache and shares the
// result table; a semantically different plan does not.
func TestServeResultCache(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	s := New(Config{DB: db, CacheEntries: 8, Registry: obs.NewRegistry()})
	q6 := tpch.MustQuery(6)
	first, err := s.RunPlan(context.Background(), "t", q6)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	second, err := s.RunPlan(context.Background(), "t", q6)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second run missed the cache")
	}
	if second.Table != first.Table {
		t.Fatal("cache hit returned a different table")
	}
	if ok, why := colstore.TablesIdentical(first.Table, second.Table); !ok {
		t.Fatalf("cached result differs: %s", why)
	}
	q1, err := s.RunPlan(context.Background(), "t", tpch.MustQuery(1))
	if err != nil {
		t.Fatal(err)
	}
	if q1.CacheHit {
		t.Fatal("different plan hit the q6 cache entry")
	}
	if q1.Fingerprint == first.Fingerprint {
		t.Fatal("different plans share a fingerprint")
	}
}

// TestServeCacheEviction: the LRU bound holds.
func TestServeCacheEviction(t *testing.T) {
	c := newResultCache(2)
	mk := func() *engine.Result {
		b := colstore.NewTableBuilder("t", colstore.Schema{{Name: "v", Type: colstore.Int64}})
		b.Int(0, 1)
		b.EndRow()
		return &engine.Result{Table: b.Build()}
	}
	c.put("a", mk())
	c.put("b", mk())
	c.put("c", mk()) // evicts a
	if _, ok := c.get("a"); ok {
		t.Fatal("LRU did not evict the oldest entry")
	}
	if _, ok := c.get("b"); !ok {
		t.Fatal("evicted a live entry")
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
}

// TestServeTenantMemBudget: a tenant with a tiny memory budget spills
// its join-bearing query through the budget-bounded scheduler — same
// answer as an unbudgeted tenant, with spill I/O recorded — while a
// plan with no spillable operator is still cancelled with
// *plan.MemLimitError.
func TestServeTenantMemBudget(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	s := New(Config{DB: db, Registry: obs.NewRegistry()})
	s.SetTenant(TenantConfig{Name: "cramped", MemLimitBytes: 64 << 10})
	q := tpch.MustQuery(3) // joins: spillable under a budget

	roomy, err := s.RunPlan(context.Background(), "roomy", q)
	if err != nil {
		t.Fatalf("roomy tenant: %v", err)
	}
	cramped, err := s.RunPlan(context.Background(), "cramped", q)
	if err != nil {
		t.Fatalf("cramped tenant: %v", err)
	}
	if ok, why := colstore.TablesIdentical(roomy.Table, cramped.Table); !ok {
		t.Fatalf("budgeted result differs from unbudgeted: %s", why)
	}
	if cramped.Counters.SpillWriteBytes == 0 || cramped.Counters.SpillReadBytes == 0 {
		t.Fatalf("cramped tenant did not spill: %+v", cramped.Counters)
	}
	if roomy.Counters.SpillWriteBytes != 0 {
		t.Fatalf("unbudgeted tenant spilled: %+v", roomy.Counters)
	}

	// Q1 has no join: nothing to spill, so the budget still cancels.
	_, err = s.RunPlan(context.Background(), "cramped", tpch.MustQuery(1))
	var mem *plan.MemLimitError
	if !errors.As(err, &mem) {
		t.Fatalf("non-spillable plan err = %v, want *plan.MemLimitError", err)
	}
}

// TestServeTenantRateLimitCancel: a context cancelled while waiting on
// the tenant's rate limiter returns promptly with the context error.
func TestServeTenantRateLimitCancel(t *testing.T) {
	db, closePool := testDB(t, 1)
	defer closePool()
	s := New(Config{DB: db, Registry: obs.NewRegistry()})
	// 1 query per hour, burst 1: the first query drains the bucket.
	s.SetTenant(TenantConfig{Name: "slow", QueriesPerSec: 1.0 / 3600, Burst: 1})
	q := tpch.MustQuery(6)
	if _, err := s.RunPlan(context.Background(), "slow", q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.RunPlan(ctx, "slow", q)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("throttled err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("throttled query did not return promptly on cancel")
	}
}

// TestServeTenantMetricsLabeled: serving emits per-tenant labeled
// series with one TYPE line per metric base name.
func TestServeTenantMetricsLabeled(t *testing.T) {
	db, closePool := testDB(t, 1)
	defer closePool()
	reg := obs.NewRegistry()
	s := New(Config{DB: db, Registry: reg})
	q := tpch.MustQuery(6)
	for _, tenant := range []string{"red", "blue"} {
		if _, err := s.RunPlan(context.Background(), tenant, q); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`wimpi_serve_queries_total{tenant="red"} 1`,
		`wimpi_serve_queries_total{tenant="blue"} 1`,
		`wimpi_serve_latency_seconds_count{tenant="red"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE wimpi_serve_queries_total counter"); got != 1 {
		t.Errorf("TYPE line for queries_total appears %d times, want 1", got)
	}
}

// TestServeRunSQLAllQueries: every TPC-H statement served through the
// SQL front answers byte-identically to the hand-built plan run on the
// engine directly. Q13's left join needs the declared TPC-H keys.
func TestServeRunSQLAllQueries(t *testing.T) {
	db, closePool := testDB(t, 2)
	defer closePool()
	s := New(Config{DB: db, Registry: obs.NewRegistry()})
	for _, q := range tpch.QueryNumbers() {
		text, err := tpch.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.RunSQL(context.Background(), "t", text)
		if err != nil {
			t.Fatalf("Q%d: RunSQL: %v", q, err)
		}
		p, err := tpch.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Run(p)
		if err != nil {
			t.Fatalf("Q%d: engine run: %v", q, err)
		}
		if ok, why := colstore.TablesIdentical(got.Table, want.Table); !ok {
			t.Errorf("Q%d: SQL result differs from the engine's: %s", q, why)
		}
	}
}
