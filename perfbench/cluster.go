package main

import (
	"runtime"
	"time"

	"wimpi/internal/cluster"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
	"wimpi/internal/tpch"
)

// clusterNodes is the loopback cluster's size. With one worker per node
// it runs nproc (2) query goroutines on this benchmark's reference host.
const clusterNodes = 2

// clusterPass is one Coordinator.Run over each representative query.
type clusterPass struct {
	wall               time.Duration
	lat                []time.Duration
	node, merge, coord time.Duration
	wire               int64
	sim                float64
	total              exec.Counters
	redispatches       int
}

// runCluster runs the representative queries through a two-node
// loopback cluster whose workers share one generated dataset and send
// over links throttled to a Pi's Ethernet bandwidth. Q13 runs on one
// node by design.
func runCluster(cfg config, m *measurement) error {
	queries := tpch.RepresentativeQueries
	var ds *tpch.Dataset
	var lc *cluster.LocalCluster
	var gen, load []float64
	err := repeatSetup(m, func() error {
		start := markNow()
		ds = tpch.Generate(tpch.Config{SF: cfg.sf, Seed: cfg.dataSeed()})
		gen = append(gen, netSince(start).Seconds())
		var err error
		lc, err = cluster.StartLocal(clusterNodes, cluster.WorkerConfig{
			LinkBandwidthBps: cluster.PiLinkBandwidthBps,
			Source:           cluster.SharedSource(ds),
		}, 1)
		if err != nil {
			return err
		}
		start = markNow()
		if _, err := lc.Coordinator.Load(cfg.sf, cfg.dataSeed()); err != nil {
			return err
		}
		load = append(load, netSince(start).Seconds())
		return nil
	}, func() {
		lc.Close()
		ds, lc = nil, nil
	})
	if err != nil {
		if lc != nil {
			lc.Close()
		}
		return err
	}
	defer lc.Close()
	m.set("tpch.generate_s", median(gen))
	m.set("tpch.dataset_mb", float64(ds.SizeBytes())/(1<<20))
	m.set("cluster.load_s", median(load))

	retries := obs.Default.Counter("wimpi_cluster_rpc_retries_total")
	retriesBefore := retries.Value()
	coord := lc.Coordinator
	sim := cluster.DefaultSimOptions()
	first := firstRuns{}
	runPass := func() clusterPass {
		p := clusterPass{lat: make([]time.Duration, len(queries))}
		results := make([]*cluster.DistResult, len(queries))
		start := markNow()
		for i, q := range queries {
			qStart := time.Now()
			res, err := coord.Run(q)
			p.lat[i] = time.Since(qStart)
			if err != nil {
				m.fail("Q%d: %v", q, err)
				continue
			}
			results[i] = res
		}
		end := markNow()
		net := netFactor(start, end)
		p.wall = scale(end.wall.Sub(start.wall), net)
		for i := range p.lat {
			p.lat[i] = scale(p.lat[i], net)
		}
		for i, res := range results {
			if res == nil {
				continue
			}
			q := queries[i]
			if res.Partial {
				m.fail("Q%d: partial result", q)
			}
			for i := 0; i < res.Redispatches; i++ {
				m.fail("Q%d: partition re-dispatched", q)
			}
			if err := first.check(i, res.Table); err != nil {
				m.fail("Q%d: %v", q, err)
			}
			slowest, merge := spanWalls(res.Root)
			p.node += scale(slowest, net)
			p.merge += scale(merge, net)
			p.coord += scale(res.HostDuration-slowest-merge, net)
			p.wire += res.BytesReceived
			p.sim += cluster.Simulate(res, sim).Total
			p.total.Add(cluster.CountersTotal(res))
			p.redispatches += res.Redispatches
		}
		m.attempt(len(queries))
		return p
	}

	warm := runPass() // first answers, caches and lazy set-up
	runtime.GC()
	var passes []clusterPass
	win := startWindow()
	for i := 0; i < 2 || !win.done(cfg); i++ {
		passes = append(passes, runPass())
	}
	if err := win.finish(m, len(passes)*len(queries)); err != nil {
		return err
	}
	nRetries := retries.Value() - retriesBefore
	for i := int64(0); i < nRetries; i++ {
		m.fail("an RPC was retried")
	}
	m.set("cluster.rpc_retries", float64(nRetries))

	lat := make([][]float64, len(queries))
	var walls, node, merge, coordMS []float64
	redispatches := 0
	for _, p := range passes {
		for i, d := range p.lat {
			lat[i] = append(lat[i], ms(d))
		}
		walls = append(walls, p.wall.Seconds())
		node = append(node, ms(p.node))
		merge = append(merge, ms(p.merge))
		coordMS = append(coordMS, ms(p.coord))
		redispatches += p.redispatches
		if p.total != warm.total || p.wire != warm.wire || p.sim != warm.sim {
			m.fail("exec counters, wire bytes or simulated time of a pass differ from the first pass")
		}
	}
	setLatencies(m, lat)
	setPasses(m, walls, len(queries), 1)
	m.set("cluster.node_ms", median(node))
	m.set("cluster.merge_ms", median(merge))
	m.set("cluster.coord_ms", median(coordMS))
	m.set("cluster.wire_bytes", float64(warm.wire))
	m.set("cluster.sim_s", warm.sim)
	m.set("cluster.redispatches", float64(redispatches))
	setExec(m, warm.total)

	ref := tpch.NewReference(ds)
	for i, q := range queries {
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

// spanWalls returns the wall time of the slowest node span and of the
// merge span under a distributed run's root.
func spanWalls(root *obs.Span) (slowest, merge time.Duration) {
	if root == nil {
		return 0, 0
	}
	for _, sp := range root.Children {
		switch sp.Op {
		case "node":
			slowest = max(slowest, sp.Wall)
		case "merge":
			merge += sp.Wall
		}
	}
	return slowest, merge
}
