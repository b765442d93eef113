package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"wimpi/internal/exec"
)

// metricDef is one metric the benchmark emits. For a per-layer metric,
// moves names the end-to-end metric it should move and the workloads on
// which it does work; everywhere else the layer does no work and the
// metric reads 0.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the system sees, emitted by every
// untraced run. Every timing is a median, which host stalls hitting a
// minority of queries or passes leave in place; a tail percentile or a
// count over the whole window moves with each stall, and so measures the
// host's other tenants more than the program. cpu_ms is the process CPU
// time per completed query: the work a query costs, which host
// contention does not inflate the way it inflates wall time. ok_ratio is
// the complement of the error ratio (errors, wrong answers, sheds and
// retries over attempted): the benchmark's metrics must never read 0,
// and an error ratio reads 0 on every correct run. Any failed operation
// also fails the run.
var endToEnd = []metricDef{
	{"setup_s", "s", ""},
	{"geomean_ms", "ms", ""},
	{"stream_s", "s", ""},
	{"qps", "1/s", ""},
	{"p50_ms", "ms", ""},
	{"cpu_ms", "ms", ""},
	{"peak_rss_mb", "MiB", ""},
	{"ok_ratio", "ratio", ""},
}

// planOps are the operator span kinds whose self time the single-node
// workloads attribute.
var planOps = []string{
	"scan", "select", "project", "gather", "hash-join", "join-build",
	"join-probe", "join-partition", "group-by", "group-partition", "sort",
	"spill-partition", "spill-probe",
}

// execCounters are the exec.Counters fields reported per pass. All but
// peak_live_bytes are summed over a pass; peak_live_bytes is its maximum
// (exec.Counters.Add keeps the high-water mark).
var execCounters = []struct {
	name, unit string
	get        func(*exec.Counters) int64
}{
	{"seq_bytes", "B", func(c *exec.Counters) int64 { return c.SeqBytes }},
	{"random_accesses", "count", func(c *exec.Counters) int64 { return c.RandomAccesses }},
	{"cache_random_accesses", "count", func(c *exec.Counters) int64 { return c.CacheRandomAccesses }},
	{"partition_bytes", "B", func(c *exec.Counters) int64 { return c.PartitionBytes }},
	{"merge_bytes", "B", func(c *exec.Counters) int64 { return c.MergeBytes }},
	{"bytes_materialized", "B", func(c *exec.Counters) int64 { return c.BytesMaterialized }},
	{"hash_probe_tuples", "count", func(c *exec.Counters) int64 { return c.HashProbeTuples }},
	{"agg_updates", "count", func(c *exec.Counters) int64 { return c.AggUpdates }},
	{"peak_live_bytes", "B", func(c *exec.Counters) int64 { return c.PeakLiveBytes }},
}

// residualProfile is the Table I server profile the per-operator model
// residual divides host time by. It also names the residual's unit.
const residualProfile = "op-gold"

const (
	singleNode = "tpch-power, tpch-spill"
	allWork    = "all workloads"
)

// perLayer lists the traced runs' metrics in the order BENCHMARK.json
// gives them.
func perLayer() []metricDef {
	defs := []metricDef{
		{"tpch.generate_s", "s", "setup_s on " + allWork},
		{"tpch.dataset_mb", "MiB", "peak_rss_mb on " + allWork},
	}
	for q := 1; q <= 22; q++ {
		defs = append(defs, metricDef{fmt.Sprintf("engine.run_ms.q%02d", q), "ms", "geomean_ms on " + singleNode})
	}
	for _, op := range planOps {
		defs = append(defs, metricDef{"plan.self_ms." + op, "ms", "stream_s on " + singleNode})
	}
	for _, c := range execCounters {
		defs = append(defs, metricDef{"exec." + c.name, c.unit, "stream_s and hardware.sim_pi_s on " + singleNode + ", cluster-2node"})
	}
	defs = append(defs, metricDef{"hardware.sim_pi_s", "s", "no host metric: the Pi model's clock on " + singleNode})
	for _, op := range planOps {
		if op == "hash-join" {
			continue // its span's counters all belong to join-build and join-probe
		}
		defs = append(defs, metricDef{"hardware.residual." + op, "host/" + residualProfile, "stream_s on " + singleNode})
	}
	return append(defs,
		metricDef{"spill.write_bytes", "B", "stream_s on tpch-spill"},
		metricDef{"spill.read_bytes", "B", "stream_s on tpch-spill"},
		metricDef{"spill.reread_ratio", "ratio", "stream_s on tpch-spill"},
		metricDef{"sql.plan_ms.p50", "ms", "p50_ms on serve-sql"},
		metricDef{"sql.plan_ms.p99", "ms", "stream_s and qps on serve-sql"},
		metricDef{"serve.wait_ms.p50", "ms", "p50_ms on serve-sql"},
		metricDef{"serve.wait_ms.p99", "ms", "stream_s and qps on serve-sql"},
		metricDef{"serve.exec_ms.p50", "ms", "p50_ms and qps on serve-sql"},
		metricDef{"serve.exec_ms.p99", "ms", "stream_s and qps on serve-sql"},
		metricDef{"serve.rejected", "count", "ok_ratio on serve-sql"},
		metricDef{"cluster.load_s", "s", "setup_s on cluster-2node"},
		metricDef{"cluster.node_ms", "ms", "stream_s on cluster-2node"},
		metricDef{"cluster.merge_ms", "ms", "stream_s on cluster-2node"},
		metricDef{"cluster.coord_ms", "ms", "stream_s on cluster-2node"},
		metricDef{"cluster.wire_bytes", "B", "stream_s on cluster-2node"},
		metricDef{"cluster.sim_s", "s", "no host metric: the Pi cluster model's clock on cluster-2node"},
		metricDef{"cluster.redispatches", "count", "ok_ratio on cluster-2node"},
		metricDef{"cluster.rpc_retries", "count", "ok_ratio on cluster-2node"},
		metricDef{"obs.trace_overhead", "ratio", "none: traced runs only, on " + singleNode},
		metricDef{"host.steal_ratio", "ratio", "none: every timing is net of it, on " + allWork},
	)
}

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect picks defs out of vals. End-to-end metrics must all have been
// measured; a per-layer metric a workload did not measure reads 0.
func collect(defs []metricDef, vals map[string]float64, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// setLatencies reports geomean_ms and p50_ms from each query's latency
// samples in ms. A query without samples (every run of it failed, which
// fails the run) is left out of the geometric mean.
func setLatencies(m *measurement, perQuery [][]float64) {
	var all, medians []float64
	for _, lat := range perQuery {
		if len(lat) > 0 {
			all = append(all, lat...)
			medians = append(medians, median(lat))
		}
	}
	m.set("geomean_ms", geomean(medians))
	m.set("p50_ms", percentile(all, 0.50))
}

// setPasses reports stream_s, the median wall time in seconds of one
// pass of queriesPerPass queries, and qps, the throughput of clients
// closed-loop clients that each complete such a pass in that time.
func setPasses(m *measurement, walls []float64, queriesPerPass, clients int) {
	stream := median(walls)
	m.set("stream_s", stream)
	m.set("qps", float64(clients*queriesPerPass)/stream)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile of xs (0 for none), interpolating
// linearly between the two nearest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	i := int(h)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (h-float64(i))*(s[i+1]-s[i])
}

// geomean returns the geometric mean of xs, which must be positive.
func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
