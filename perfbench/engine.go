package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"wimpi/internal/colstore"
	"wimpi/internal/engine"
	"wimpi/internal/exec"
	"wimpi/internal/hardware"
	"wimpi/internal/obs"
	"wimpi/internal/plan"
	"wimpi/internal/tpch"
)

// engineSpec is a single-node workload: the queries of one pass, run in
// order on engine.DB, and the per-query memory budget.
type engineSpec struct {
	queries []int
	budget  int64
}

// powerSpec runs all 22 queries with spec parameters and no budget.
var powerSpec = engineSpec{queries: tpch.QueryNumbers()}

// spillSpec runs the join queries that spill under a 4 MiB budget. Q21
// is left out because group-by, not spill, dominates it; Q20 spills
// under 0.2 MB; the joinless Q1, Q6 and Q15 are rejected under any
// budget by design.
var spillSpec = engineSpec{queries: []int{3, 4, 5, 7, 8, 9, 12, 13, 17}, budget: 4 << 20}

// pass is one run over a workload's query list.
type pass struct {
	wall    time.Duration
	lat     []time.Duration
	tables  []*colstore.Table
	ctr     []exec.Counters
	roots   []*obs.Span // traced passes only
	net     float64     // netFactor of the pass; wall and lat are net of steal
	total   exec.Counters
	errored bool
}

func runEngine(cfg config, spec engineSpec, m *measurement) error {
	workers := runtime.GOMAXPROCS(0)
	spillDir := ""
	if spec.budget > 0 {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(buildDir, "spill-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		spillDir = dir
	}

	var ds *tpch.Dataset
	var db *engine.DB
	var gen []float64
	err := repeatSetup(m, func() error {
		start := markNow()
		ds = tpch.Generate(tpch.Config{SF: cfg.sf, Seed: cfg.dataSeed()})
		gen = append(gen, netSince(start).Seconds())
		db = engine.NewDB(engine.Config{Workers: workers, MemBudgetBytes: spec.budget, SpillDir: spillDir})
		ds.RegisterAll(db)
		return nil
	}, func() { ds, db = nil, nil })
	if err != nil {
		return err
	}
	m.set("tpch.generate_s", median(gen))
	m.set("tpch.dataset_mb", float64(ds.SizeBytes())/(1<<20))

	plans := make([]plan.Node, len(spec.queries))
	for i, q := range spec.queries {
		if plans[i], err = tpch.Query(q); err != nil {
			return err
		}
	}
	first := firstRuns{}
	runPass := func(traced bool) pass {
		p := pass{
			lat:    make([]time.Duration, len(plans)),
			tables: make([]*colstore.Table, len(plans)),
			ctr:    make([]exec.Counters, len(plans)),
		}
		if traced {
			p.roots = make([]*obs.Span, len(plans))
		}
		start := markNow()
		for i, pl := range plans {
			qStart := time.Now()
			var res *engine.Result
			var err error
			if traced {
				var tr *engine.TracedResult
				if tr, err = db.RunTraced(pl); err == nil {
					res, p.roots[i] = &tr.Result, tr.Root
				}
			} else {
				res, err = db.Run(pl)
			}
			p.lat[i] = time.Since(qStart)
			if err != nil {
				m.fail("Q%d: %v", spec.queries[i], err)
				p.errored = true
				continue
			}
			p.tables[i], p.ctr[i] = res.Table, res.Counters
			p.total.Add(res.Counters)
		}
		end := markNow()
		p.net = netFactor(start, end)
		p.wall = scale(end.wall.Sub(start.wall), p.net)
		for i := range p.lat {
			p.lat[i] = scale(p.lat[i], p.net)
		}
		// Answers are checked after the pass so checking is not timed.
		for i, t := range p.tables {
			if t == nil {
				continue
			}
			if err := first.check(i, t); err != nil {
				m.fail("Q%d: %v", spec.queries[i], err)
			}
		}
		m.attempt(len(plans))
		return p
	}

	warm := runPass(false) // first answers, caches and lazy set-up
	runtime.GC()
	var plain, traced []pass
	win := startWindow()
	for i := 0; i < 2 || !win.done(cfg); i++ {
		tr := cfg.trace && i%2 == 1
		p := runPass(tr)
		if tr {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	if err := win.finish(m, (len(plain)+len(traced))*len(plans)); err != nil {
		return err
	}
	for _, p := range append(plain, traced...) {
		if !p.errored && !warm.errored && p.total != warm.total {
			m.fail("exec counters of a pass differ from the first pass")
		}
	}

	lat := make([][]float64, len(plans))
	for _, p := range plain {
		for i, d := range p.lat {
			lat[i] = append(lat[i], ms(d))
		}
	}
	setLatencies(m, lat)
	for i, q := range spec.queries {
		m.set(fmt.Sprintf("engine.run_ms.q%02d", q), median(lat[i]))
	}
	setPasses(m, passWalls(plain), len(plans), 1)

	setExec(m, warm.total)
	pi, model := hardware.Pi(), hardware.DefaultModel()
	var sim time.Duration
	for _, c := range warm.ctr {
		sim += model.QueryTime(&pi, c, pi.TotalCores())
	}
	m.set("hardware.sim_pi_s", sim.Seconds())
	m.set("spill.write_bytes", float64(warm.total.SpillWriteBytes))
	m.set("spill.read_bytes", float64(warm.total.SpillReadBytes))
	if warm.total.SpillWriteBytes > 0 {
		m.set("spill.reread_ratio", float64(warm.total.SpillReadBytes)/float64(warm.total.SpillWriteBytes))
	}
	if len(traced) > 0 {
		if err := setSpanLayers(m, traced, workers); err != nil {
			return err
		}
		m.set("obs.trace_overhead", median(passWalls(traced))/median(passWalls(plain))-1)
	}

	// The oracle runs after the window and after the peak resident set
	// was read.
	if spec.budget > 0 {
		unbudgeted := engine.NewDB(engine.Config{Workers: workers})
		ds.RegisterAll(unbudgeted)
		for i, pl := range plans {
			if first[i] == nil {
				continue // every run of the query failed, which fails the run
			}
			res, err := unbudgeted.Run(pl)
			if err != nil {
				m.fail("Q%d unbudgeted: %v", spec.queries[i], err)
				continue
			}
			if same, where := colstore.TablesIdentical(res.Table, first[i]); !same {
				m.fail("Q%d: spilled answer differs from the unbudgeted one: %s", spec.queries[i], where)
			}
		}
		return nil
	}
	ref := tpch.NewReference(ds)
	for i, q := range spec.queries {
		want, err := ref.Query(q)
		if err != nil {
			return err
		}
		if t := first[i]; t != nil {
			if err := matchReference(t, want); err != nil {
				m.fail("Q%d: %v", q, err)
			}
		}
	}
	return nil
}

func passWalls(ps []pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

// setExec reports one pass's counters.
func setExec(m *measurement, c exec.Counters) {
	for _, e := range execCounters {
		m.set("exec."+e.name, float64(e.get(&c)))
	}
}

// setSpanLayers attributes the traced passes' operator self time, and
// divides it by the hardware model's time for the residual profile at
// the host's parallelism. Each value is the median over traced passes.
func setSpanLayers(m *measurement, traced []pass, workers int) error {
	server, err := hardware.ByName(residualProfile)
	if err != nil {
		return err
	}
	model := hardware.DefaultModel()
	self := map[string][]float64{}
	residual := map[string][]float64{}
	for _, p := range traced {
		wall := map[string]time.Duration{}
		predicted := map[string]time.Duration{}
		for _, root := range p.roots {
			if root == nil {
				continue
			}
			root.Walk(func(sp *obs.Span, _ int) {
				wall[sp.Op] += scale(sp.SelfWall(), p.net)
				predicted[sp.Op] += model.OperatorTime(&server, sp.SelfCounters(), workers)
			})
		}
		for _, op := range planOps {
			self[op] = append(self[op], ms(wall[op]))
			if predicted[op] > 0 {
				residual[op] = append(residual[op], float64(wall[op])/float64(predicted[op]))
			}
		}
	}
	for _, op := range planOps {
		m.set("plan.self_ms."+op, median(self[op]))
		m.set("hardware.residual."+op, median(residual[op]))
	}
	return nil
}
