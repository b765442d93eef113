package plan

import (
	"strings"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
	"wimpi/internal/obs"
)

// spanNode wraps a node so its execution opens an operator span on the
// context's tracer. Phase-level spans (join build/probe, gathers) are
// opened by the operators themselves and nest inside this one.
type spanNode struct {
	inner Node
	op    string
}

// Execute implements Node.
func (a *spanNode) Execute(ctx *Context) (*colstore.Table, error) {
	sp := ctx.Trace.Begin(a.op, firstLine(strings.TrimSpace(a.inner.Explain(0))))
	out, err := a.inner.Execute(ctx)
	if err != nil {
		ctx.Trace.EndErr(sp)
		return nil, err
	}
	ctx.Trace.End(sp, int64(out.NumRows()), out.SizeBytes())
	return out, nil
}

// Explain implements Node.
func (a *spanNode) Explain(depth int) string { return a.inner.Explain(depth) }

// opName maps a node to its span operator kind.
func opName(n Node) string {
	switch n.(type) {
	case *Scan:
		return "scan"
	case *Filter:
		return "select"
	case *Project:
		return "project"
	case *Rename:
		return "rename"
	case *Limit:
		return "limit"
	case *OrderBy:
		return "sort"
	case *GroupBy:
		return "group-by"
	case *HashJoin:
		return "hash-join"
	case *Fused:
		return "fused-pipeline"
	case *spanNode:
		return "node" // wrappers are never re-instrumented
	default:
		return "node"
	}
}

// instrument returns a deep copy of the plan with every node wrapped in
// a spanNode. It understands all node types defined in this package;
// unknown nodes (e.g. query-defined function nodes) are wrapped without
// descending into their internals.
func instrument(n Node) Node {
	wrap := func(inner Node) Node { return &spanNode{inner: inner, op: opName(n)} }
	switch v := n.(type) {
	case *Scan:
		c := *v
		return wrap(&c)
	case *Filter:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *Project:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *Rename:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *Limit:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *OrderBy:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *GroupBy:
		c := *v
		c.Input = instrument(v.Input)
		return wrap(&c)
	case *HashJoin:
		c := *v
		c.Build = instrument(v.Build)
		c.Probe = instrument(v.Probe)
		return wrap(&c)
	case *Fused:
		c := *v
		if c.useFused {
			// Instrument the subplans the fused path actually executes:
			// the generic driver and every probe's build side. Phase
			// spans (join-build, fused-probe, gather) come from the
			// pipeline itself.
			if c.input != nil {
				c.input = instrument(v.input)
			}
			c.stages = make([]fusedStage, len(v.stages))
			copy(c.stages, v.stages)
			for i, st := range c.stages {
				if ps, ok := st.(probeStage); ok {
					ps.build = instrument(ps.build)
					c.stages[i] = ps
				}
			}
		} else {
			c.fallback = instrument(v.fallback)
		}
		return wrap(&c)
	case *spanNode:
		return v // already instrumented
	default:
		return wrap(n)
	}
}

// Traced is the outcome of a traced execution.
type Traced struct {
	// Table is the query result.
	Table *colstore.Table
	// Counters is the total work.
	Counters exec.Counters
	// Root is the operator span tree.
	Root *obs.Span
}

// RunTraced executes a plan with operator span tracing. The result table
// and counters are bit-identical to Run's — tracing only snapshots the
// counters the kernels charge anyway, plus wall clocks that never feed
// back into execution.
func RunTraced(cat Catalog, workers int, n Node) (*Traced, error) {
	return RunTracedContext(&Context{Cat: cat, Workers: workers}, n)
}

// RunTracedContext is RunTraced under a caller-configured context. A nil
// Ctr gets fresh counters; any Trace already set is replaced by the
// tracer whose span tree the result reports, though a pre-set tracer's
// Hook is inherited — that is how deterministic tests act at an exact
// pipeline stage (e.g. cancel the query the moment its sort begins).
func RunTracedContext(ctx *Context, n Node) (*Traced, error) {
	if ctx.Ctr == nil {
		ctx.Ctr = &exec.Counters{}
	}
	tr := obs.NewTracer(ctx.Ctr)
	if ctx.Trace != nil {
		tr.Hook = ctx.Trace.Hook
	}
	ctx.Trace = tr
	sched, release := ctx.attachSched()
	compiled := instrument(Compile(ctx, n))
	if ctx.SpillDir != "" && ctx.MemLimitBytes > 0 {
		ctx.spillOK = hasSpillableJoin(compiled)
	}
	out, err := compiled.Execute(ctx)
	ctx.spillOK = false
	if a := ctx.spillArea; a != nil {
		ctx.spillArea = nil
		if cerr := a.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = sched.Err()
	}
	release()
	if err != nil {
		return nil, err
	}
	return &Traced{Table: out, Counters: *ctx.Ctr, Root: tr.Root()}, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
