package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/serve"
	"wimpi/internal/sql"
	"wimpi/internal/tpch"
)

// paramPool is how many qgen parameter sets the serve clients draw from.
const paramPool = 8

// request is one served query's timing.
type request struct {
	query           int // index into tpch.RepresentativeQueries
	total, plan     time.Duration
	wait, execution time.Duration
}

// runServe mirrors cmd/wimpi-serve's load mode without its result
// cache: nproc closed-loop clients, each its own weight-1 tenant, send
// SQL through sql.Plan and Server.RunPlan (what RunSQL does, with the
// TPC-H keys declared) over a shared morsel pool.
func runServe(cfg config, m *measurement) error {
	queries := tpch.RepresentativeQueries
	workers := runtime.GOMAXPROCS(0)
	clients := workers
	var ds *tpch.Dataset
	var db *engine.DB
	var pool *exec.Pool
	var srv *serve.Server
	var gen []float64
	err := repeatSetup(m, func() error {
		start := markNow()
		ds = tpch.Generate(tpch.Config{SF: cfg.sf, Seed: cfg.dataSeed()})
		gen = append(gen, netSince(start).Seconds())
		pool = exec.NewPool(workers)
		db = engine.NewDB(engine.Config{Workers: workers, Pool: pool})
		ds.RegisterAll(db)
		srv = serve.New(serve.Config{DB: db, MaxConcurrent: workers, MaxQueue: clients})
		for c := 0; c < clients; c++ {
			srv.SetTenant(serve.TenantConfig{Name: tenantName(c), Weight: 1})
		}
		return nil
	}, func() {
		pool.Close()
		ds, db, pool, srv = nil, nil, nil, nil
	})
	if err != nil {
		return err
	}
	defer pool.Close()
	m.set("tpch.generate_s", median(gen))
	m.set("tpch.dataset_mb", float64(ds.SizeBytes())/(1<<20))

	params := make([]tpch.Params, paramPool)
	texts := make([][]string, len(queries))
	for i := range params {
		params[i] = tpch.RandomParams(derive(cfg.seed, streamParams, i))
	}
	for qi, q := range queries {
		texts[qi] = make([]string, paramPool)
		for pi := range params {
			if texts[qi][pi], err = tpch.SQLP(q, params[pi]); err != nil {
				return err
			}
		}
	}

	// Clients declare the TPC-H unique keys, as cmd/wimpi and the cluster
	// workers do. Server.RunSQL plans without them, which rejects Q13.
	keys := tpch.TableKeys()
	var mu sync.Mutex
	first := firstRuns{}
	var rejected int
	ctx := context.Background()
	do := func(tenant string, qi, pi int) (request, bool) {
		q := queries[qi]
		start := time.Now()
		planned, err := sql.Plan(db, texts[qi][pi], sql.Options{UniqueKeys: keys})
		planEnd := time.Now()
		var res *serve.QueryResult
		if err == nil {
			res, err = srv.RunPlan(ctx, tenant, planned.Node)
		}
		end := time.Now()
		m.attempt(1)
		var overload *serve.OverloadError
		switch {
		case errors.As(err, &overload):
			mu.Lock()
			rejected++
			mu.Unlock()
			m.fail("Q%d: shed: %v", q, err)
			return request{}, false
		case err != nil:
			m.fail("Q%d: %v", q, err)
			return request{}, false
		case res.CacheHit:
			m.fail("Q%d: served from the result cache, which is off", q)
			return request{}, false
		}
		mu.Lock()
		err = first.check([2]int{qi, pi}, res.Table)
		mu.Unlock()
		if err != nil {
			m.fail("Q%d: %v", q, err)
			return request{}, false
		}
		return request{query: qi, total: end.Sub(start), plan: planEnd.Sub(start),
			wait: end.Sub(planEnd) - res.HostDuration, execution: res.HostDuration}, true
	}

	for qi := range queries { // first answers, caches and lazy set-up
		do(tenantName(0), qi, 0)
	}
	runtime.GC()

	reqs := make([][]request, clients)
	passes := make([][]float64, clients)
	var wg sync.WaitGroup
	win := startWindow()
	deadline := win.start.wall.Add(cfg.seconds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(derive(cfg.seed, streamClient, c))))
			for time.Now().Before(deadline) {
				start := markNow()
				var pass []request
				complete := true
				for _, qi := range rng.Perm(len(queries)) {
					if !time.Now().Before(deadline) {
						complete = false
						break
					}
					if r, ok := do(tenantName(c), qi, rng.Intn(paramPool)); ok {
						pass = append(pass, r)
					}
				}
				// The clients share the process, so the pass's steal
				// share applies to each of its requests.
				end := markNow()
				net := netFactor(start, end)
				for _, r := range pass {
					reqs[c] = append(reqs[c], r.scale(net))
				}
				if complete {
					passes[c] = append(passes[c], scale(end.wall.Sub(start.wall), net).Seconds())
				}
			}
		}(c)
	}
	wg.Wait()

	var all []request
	var allPasses []float64
	for c := range reqs {
		all = append(all, reqs[c]...)
		allPasses = append(allPasses, passes[c]...)
	}
	if err := win.finish(m, len(all)); err != nil {
		return err
	}
	lat := make([][]float64, len(queries))
	for _, r := range all {
		lat[r.query] = append(lat[r.query], ms(r.total))
	}
	setLatencies(m, lat)
	setPasses(m, allPasses, len(queries), clients)
	for name, get := range map[string]func(request) time.Duration{
		"sql.plan_ms":   func(r request) time.Duration { return r.plan },
		"serve.wait_ms": func(r request) time.Duration { return r.wait },
		"serve.exec_ms": func(r request) time.Duration { return r.execution },
	} {
		v := make([]float64, len(all))
		for i, r := range all {
			v[i] = ms(get(r))
		}
		m.set(name+".p50", percentile(v, 0.50))
		m.set(name+".p99", percentile(v, 0.99))
	}
	m.set("serve.rejected", float64(rejected))

	ref := tpch.NewReference(ds)
	for key, t := range first {
		k := key.([2]int)
		want, err := ref.QueryP(queries[k[0]], params[k[1]])
		if err != nil {
			return err
		}
		if err := matchReference(t, want); err != nil {
			m.fail("Q%d with parameter set %d: %v", queries[k[0]], k[1], err)
		}
	}
	return nil
}

func (r request) scale(f float64) request {
	r.total, r.plan = scale(r.total, f), scale(r.plan, f)
	r.wait, r.execution = scale(r.wait, f), scale(r.execution, f)
	return r
}

func tenantName(c int) string { return fmt.Sprintf("client%d", c) }
