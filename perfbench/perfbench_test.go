package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json at the repository root, resolved
// before TestMain moves the tests into a scratch directory.
var benchmarkFile string

// TestMain runs the tests from a temporary directory, so the spill
// areas the workloads create stay out of the source tree.
func TestMain(m *testing.M) {
	abs, err := filepath.Abs("../BENCHMARK.json")
	if err != nil {
		panic(err)
	}
	benchmarkFile = abs
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(dir); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type metricJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode checks that BENCHMARK.json declares
// exactly the workloads and metrics, with the units, that the code emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, have)
	}
	check := func(kind string, declared []metricJSON, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, code emits %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), code emits %s (%s)",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer())
}

func tinyRun(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, failures, err := run(config{workload: workload, seed: 3, seconds: time.Second, trace: trace, sf: 0.01})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !res.Correct {
		t.Fatalf("%s trace=%v: wrong answers: %v", workload, trace, failures)
	}
	return res
}

// idleAtTinySF are the per-layer metrics that may read 0 on every
// workload at SF 0.01: failure counts, the host's steal, and operators
// that only a larger scale factor drives (radix join partitioning,
// spilling).
var idleAtTinySF = map[string]bool{
	"serve.rejected": true, "cluster.redispatches": true, "cluster.rpc_retries": true,
	"host.steal_ratio":            true,
	"plan.self_ms.join-partition": true, "hardware.residual.join-partition": true,
	"plan.self_ms.spill-partition": true, "hardware.residual.spill-partition": true,
	"plan.self_ms.spill-probe": true, "hardware.residual.spill-probe": true,
	"spill.write_bytes": true, "spill.read_bytes": true, "spill.reread_ratio": true,
}

// TestEveryMetricEmitted runs every workload at a tiny scale factor in
// both modes and checks that each named metric is emitted with its unit,
// that end-to-end metrics are positive, and that every per-layer metric
// except idleAtTinySF measures work on some workload.
func TestEveryMetricEmitted(t *testing.T) {
	measured := map[string]bool{}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer()
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s has unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: %s = %v, want > 0", name, d.name, m.Value)
				case m.Value != 0:
					measured[d.name] = true
				}
			}
		}
	}
	for _, d := range perLayer() {
		if !measured[d.name] && !idleAtTinySF[d.name] {
			t.Errorf("%s reads 0 on every workload", d.name)
		}
	}
}

// exactMetrics are the per-layer metrics computed from deterministic
// counters; they must repeat bit for bit.
var exactMetrics = func() []string {
	names := []string{"tpch.dataset_mb", "hardware.sim_pi_s", "spill.write_bytes",
		"spill.read_bytes", "cluster.wire_bytes", "cluster.sim_s"}
	for _, c := range execCounters {
		names = append(names, "exec."+c.name)
	}
	return names
}()

// TestExactMetricsRepeat checks that two traced runs with one seed agree
// exactly on every counter-derived metric, and that those metrics do
// work on the workloads meant to move them.
func TestExactMetricsRepeat(t *testing.T) {
	for _, name := range []string{"tpch-power", "tpch-spill", "cluster-2node"} {
		a, b := tinyRun(t, name, true), tinyRun(t, name, true)
		for _, m := range exactMetrics {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s is %v, then %v", name, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
		if a.Metrics["exec.seq_bytes"].Value == 0 {
			t.Errorf("%s: no exec counters recorded", name)
		}
	}
}

// TestNetFactor checks how steal is taken out of wall time on a host
// with runtime.NumCPU() vCPUs.
func TestNetFactor(t *testing.T) {
	cpus := time.Duration(runtime.NumCPU())
	at := func(wall, cpu, steal time.Duration) mark {
		return mark{wall: time.Unix(0, 0).Add(wall), cpu: cpu, steal: steal}
	}
	start := at(0, 0, 0)
	for _, c := range []struct {
		name string
		end  mark
		want float64
	}{
		{"no steal", at(time.Second, cpus*time.Second, 0), 1},
		// Every vCPU ran half the time and was stolen the other half.
		{"all vCPUs stolen", at(time.Second, cpus*time.Second/2, cpus*time.Second/2), 0.5},
		// One thread ran half the time and was stolen the other half.
		{"one thread stolen", at(time.Second, time.Second/2, time.Second/2), 0.5},
		// A thread that waited 0.8 s and ran 0.1 s, stolen for 0.1 s.
		{"mostly idle", at(time.Second, time.Second/10, time.Second/10), 0.9},
		// Steal beyond the wall time cannot push the net time below
		// the CPU time spread over every vCPU.
		{"floor", at(time.Second, cpus*time.Second/2, 4*cpus*time.Second), 0.5},
	} {
		if got := netFactor(start, c.end); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: netFactor = %v, want %v", c.name, got, c.want)
		}
	}
}
