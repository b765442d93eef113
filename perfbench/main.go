// Command perfbench is WimPi's repository benchmark: it times TPC-H on
// the in-memory engine end to end, on one node and on a two-node
// loopback cluster, and attributes the time to layers.
//
// Usage (from the root of a checkout; perfbench/run.sh builds and runs it):
//
//	perfbench --workload tpch-power --seed 1 --seconds 24 --trace 0
//
// Workloads are tpch-power, tpch-spill, serve-sql and cluster-2node (see
// README.md). With --trace 0 the run reports the end-to-end metrics; with
// --trace 1 it reports the per-layer metrics, read from the span trees and
// counters the engine's public calls return. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Every run is also appended, stamped with the commit, toolchain, CPU
// count, scale factor and seed, to a JSON-lines trajectory file.
//
// Every answer is checked: against the TPC-H reference implementation,
// against the unbudgeted answer for spilled queries, and byte for byte
// against the query's first run. Any error, mismatch, shed request,
// transport retry or partition re-dispatch counts as a failed operation
// and makes the run exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything a run writes: spill areas and the trajectory.
const buildDir = ".bench_build"

// trajectoryFile is the JSON-lines file every result is appended to.
const trajectoryFile = buildDir + "/trajectory.jsonl"

// scaleFactor is the TPC-H scale factor every workload runs at.
const scaleFactor = 0.1

// setupReps is how often each run sets its workload up; setup_s is the
// median.
const setupReps = 3

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	sf       float64 // scaleFactor; the self-test runs smaller
}

// Streams of the workload seed; derive(seed, stream, i) feeds one input.
const (
	streamData = iota + 1
	streamParams
	streamClient
)

// derive mixes a stream and index into the workload seed (splitmix64),
// so the dataset, the parameter pool and each client RNG come from the
// one --seed argument.
func derive(seed uint64, stream, i int) uint64 {
	z := seed ^ (uint64(stream)<<32|uint64(i))*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (c config) dataSeed() uint64 { return derive(c.seed, streamData, 0) }

// measurement accumulates one run's values and its correctness tally.
// Workload goroutines share it.
type measurement struct {
	mu        sync.Mutex
	vals      map[string]float64
	attempted int64
	failed    int64 // wrong, errored, shed or retried: the run fails
	failures  []string
}

func newMeasurement() *measurement { return &measurement{vals: map[string]float64{}} }

func (m *measurement) set(name string, v float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vals[name] = v
}

// attempt counts n verified operations.
func (m *measurement) attempt(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attempted += int64(n)
}

// fail counts one wrong, errored, shed or retried operation; it fails
// the run.
func (m *measurement) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failed++
	if len(m.failures) < 20 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// repeatSetup times build setupReps times, calling release on each
// fixture but the last before building the next, and reports the median
// as setup_s. release drops every reference to the fixture, so the
// garbage collection between builds keeps earlier fixtures out of the
// later ones' timing and out of the peak resident set.
func repeatSetup(m *measurement, build func() error, release func()) error {
	var walls []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release()
			runtime.GC()
		}
		start := markNow()
		if err := build(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		walls = append(walls, netSince(start).Seconds())
	}
	m.set("setup_s", median(walls))
	runtime.GC()
	return nil
}

// window is a workload's timed interval.
type window struct{ start mark }

func startWindow() window { return window{markNow()} }

// done reports whether the window has lasted cfg.seconds.
func (w window) done(cfg config) bool { return time.Since(w.start.wall) >= cfg.seconds }

// finish records the metrics every workload shares once its window has
// ended: the CPU time per completed query, the share of the CPU time
// the process wanted that went to steal, and the peak resident set
// (read before the oracle runs, so its answers are not counted).
func (w window) finish(m *measurement, completed int) error {
	end := markNow()
	_, peakRSS, err := usage()
	if err != nil {
		return err
	}
	cpu, steal := end.cpu-w.start.cpu, end.steal-w.start.steal
	m.set("cpu_ms", float64(cpu)/1e6/float64(completed))
	m.set("host.steal_ratio", float64(steal)/float64(cpu+steal))
	m.set("peak_rss_mb", peakRSS)
	return nil
}

// usage reads the process's CPU time (user plus system, every thread)
// and its peak resident set (VmHWM) in MiB. Unlike wall time, CPU time
// leaves out time the host gave the CPUs to other tenants.
func usage() (time.Duration, float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

var workloads = map[string]func(config, *measurement) error{
	"tpch-power":    func(c config, m *measurement) error { return runEngine(c, powerSpec, m) },
	"tpch-spill":    func(c config, m *measurement) error { return runEngine(c, spillSpec, m) },
	"serve-sql":     runServe,
	"cluster-2node": runCluster,
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload invocation and returns its result; failures
// of the program under test are in the result, failures of the run in
// the error.
func run(cfg config) (*result, []string, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	m := newMeasurement()
	if err := fn(cfg, m); err != nil {
		return nil, nil, err
	}
	if m.attempted < 1 {
		return nil, nil, fmt.Errorf("no operation completed")
	}
	m.vals["ok_ratio"] = float64(m.attempted-m.failed) / float64(m.attempted)
	defs, required := endToEnd, true
	if cfg.trace {
		defs, required = perLayer(), false
	}
	metrics, err := collect(defs, m.vals, required)
	if err != nil {
		return nil, nil, err
	}
	return &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: metrics}, m.failures, nil
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: tpch-power, tpch-spill, serve-sql or cluster-2node")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the dataset, parameters and client RNGs derive from it")
	flag.IntVar(&seconds, "seconds", 24, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := readSteal(); err != nil {
		fatalf("timings are taken net of steal, which needs %v", err)
	}
	cfg.sf = scaleFactor
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	res, failures, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL %s\n", cfg.workload, f)
	}
	st := newStamp(cfg)
	if err := appendTrajectory(trajectoryFile, st, res); err != nil {
		fatalf("%v", err)
	}
	printReport(cfg, st, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// printReport writes the human-readable table and, as the last line,
// the result object.
func printReport(cfg config, st stamp, res *result) {
	b, _ := json.Marshal(st) // a stamp of strings and numbers always encodes
	fmt.Printf("stamp %s\n", b)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		if d.moves != "" {
			fmt.Printf("%-32s %14.6g %-13s moves %s\n", d.name, m.Value, m.Unit, d.moves)
		} else {
			fmt.Printf("%-32s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
	fmt.Printf("%s: attempted %d, failed %d\n", cfg.workload, res.Attempted, res.Failed)
	b, _ = json.Marshal(res) // finite floats (checked by collect) always encode
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
