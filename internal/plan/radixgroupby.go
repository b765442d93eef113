package plan

// Radix-partitioned grouped aggregation. When the estimated group count
// would blow the LLC budget, the packed keys are radix-partitioned first
// so each partition's grouper stays cache-resident; partitions aggregate
// independently as morsels.
//
// The output is byte-identical to groupedMorsel's.
//
// Group order: within a partition rows arrive in ascending original
// order (the radix scatter is stable), so each partition-local group's
// first occurrence is the key's global first occurrence. Those rows are
// unique in [0, n), so each partition scatters its groups into a dense
// slot array indexed by first-occurrence row, and one sweep of that
// array in row order reproduces the global first-occurrence order both
// existing paths emit — linear in the input, with no sort. The merge is
// charged as one random access per group (the scatter), sequential
// bytes for the slot array's fill and sweep, and merge bytes for
// assembling the aggregate columns.
//
// Float sums: groupedMorsel folds rows left-to-right within each morsel
// and then folds the per-morsel partials in morsel order, so the radix
// path reproduces that exact association by cutting its per-group fold
// at every morsel boundary.

import (
	"fmt"
	"math"

	"wimpi/internal/colstore"
	"wimpi/internal/exec"
)

// estimateGroups estimates the distinct count of keys from a strided
// sample pushed through a small grouper. The stride depends only on the
// input size, so the estimate — and the plan choice it feeds — is
// deterministic and worker-independent. The estimate only sizes the
// radix fan-out; an underestimate costs cache residency (and is caught
// by the hardware model via MaxPartitionBytes), never correctness.
func estimateGroups(keys []int64, ctr *exec.Counters) int {
	n := len(keys)
	stride := n / 4096
	if stride < 1 {
		stride = 1
	}
	sample := make([]int64, 0, n/stride+1)
	for i := 0; i < n; i += stride {
		sample = append(sample, keys[i])
	}
	g := exec.NewGrouper(1024)
	g.GroupIDs(sample, ctr)
	d := g.NumGroups()
	if d*2 < len(sample) {
		// Keys repeat heavily inside the sample: the sample has likely
		// seen most groups, so the sample's distinct count is the
		// estimate.
		return d
	}
	// Mostly-unique sample: distinct count scales with the stride.
	est := d * stride
	if est > n {
		est = n
	}
	return est
}

// radixGroupBytesPerRow estimates the per-group partition footprint for
// sizing the fan-out: grouper slots (2x occupancy, key+gid) plus
// first-row and accumulator state.
func radixGroupBytesPerRow(naggs int) int64 {
	return int64(24 + 4 + 16*naggs)
}

// useRadixGroupBy mirrors useRadixJoin: the decision depends only on the
// estimated group count and the LLC budget, never the worker count.
func useRadixGroupBy(estGroups int, llcBytes int64) bool {
	return llcBytes > 0 && exec.GrouperBytes(estGroups) > llcBytes
}

// radixGroupPart is one partition's aggregation state.
type radixGroupPart struct {
	ngroups int
	aggs    []aggState
}

// groupRef packs a partition-local group (part, lg) into a slot of the
// dense first-row merge array. Zero marks an empty slot, so a freshly
// allocated array needs no fill pass.
func groupRef(part, lg int) int64 { return int64(part)<<32 | int64(lg) + 1 }

// unpackGroupRef inverts groupRef for a non-empty slot.
func unpackGroupRef(ref int64) (part, lg int32) {
	ref--
	return int32(ref >> 32), int32(ref)
}

// scatterFirstRows writes each group of partition p into slot at its
// global first-occurrence row. The grouper numbers groups in order of
// first appearance, so group next first occurs where gid == next.
func scatterFirstRows(slot []int64, p int, gids, rows []int32, ctr *exec.Counters) {
	next := int32(0)
	for i, gid := range gids {
		if gid == next {
			slot[rows[i]] = groupRef(p, int(gid))
			next++
		}
	}
	ctr.RandomAccesses += int64(next)
}

// sweepFirstRows visits slot in row order and returns the packed refs of
// the ngroups non-empty slots with their rows. It compacts refs into
// slot's own prefix (the write index never passes the read index). The
// slot array is charged as streamed twice: its zero fill at allocation
// and this sweep.
func sweepFirstRows(slot []int64, ngroups int, ctr *exec.Counters) (refs []int64, firstRow []int32) {
	refs = slot[:0]
	firstRow = make([]int32, 0, ngroups)
	for r, ref := range slot {
		if ref != 0 {
			refs = append(refs, ref)
			firstRow = append(firstRow, int32(r))
		}
	}
	ctr.SeqBytes += 2 * 8 * int64(len(slot))
	return refs, firstRow
}

// groupedRadix is the radix-partitioned grouped aggregation path.
func (g *GroupBy) groupedRadix(ctx *Context, in *colstore.Table, packed []int64, estGroups int, target int64) (*colstore.Table, error) {
	w, mr := ctx.workers(), ctx.morselRows()

	bits := exec.RadixBits(estGroups, radixGroupBytesPerRow(len(g.Aggs)), target/2)
	sp := ctx.Trace.Begin("group-partition",
		fmt.Sprintf("radix %d-way, %d pass(es)", 1<<bits, exec.RadixPasses(bits)))
	rp, err := exec.RadixPartitionKeys(packed, nil, bits, w, mr, ctx.Ctr)
	if err != nil {
		ctx.Trace.EndErr(sp)
		return nil, err
	}
	ctx.Trace.End(sp, int64(len(packed)), int64(len(packed))*12)

	// Evaluate aggregate arguments once over the unpartitioned input
	// (elementwise, so values match the per-morsel evaluation of the
	// direct path), then route them through the same partition order as
	// the keys.
	fargs := make([][]float64, len(g.Aggs))
	iargs := make([][]int64, len(g.Aggs))
	for si, spec := range g.Aggs {
		switch spec.Func {
		case Count:
			// Pure row count; the argument (if any) is not evaluated,
			// matching aggMorsel.
		case SumI:
			iv, err := aggArgI(ctx, in, spec)
			if err != nil {
				return nil, err
			}
			iargs[si], err = rp.GatherI64(iv, w, mr, ctx.Ctr)
			if err != nil {
				return nil, err
			}
		case Sum, Avg, Min, Max:
			fv, err := aggArg(ctx, in, spec)
			if err != nil {
				return nil, err
			}
			fargs[si], err = rp.GatherF64(fv, w, mr, ctx.Ctr)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("plan: unknown aggregate %d", spec.Func)
		}
	}

	// Each partition aggregates independently into a cache-sized grouper;
	// partitions are morsels, so worker count never changes results.
	// Every partition-local group is also scattered into slot at its
	// global first-occurrence row. Those rows are unique in [0, n), so
	// the writes of different partitions never collide.
	slot := make([]int64, in.NumRows())
	np := rp.NumPartitions()
	parts := make([]*radixGroupPart, np)
	err = exec.RunMorsels(w, np, 1, ctx.Ctr, func(p, _, _ int, c *exec.Counters) error {
		lo, hi := int(rp.Off[p]), int(rp.Off[p+1])
		keys := rp.Keys[lo:hi]
		rows := rp.Rows[lo:hi]
		gr := exec.NewGrouper(256)
		gids := gr.GroupIDsCacheResident(keys, c)
		ng := gr.NumGroups()
		part := &radixGroupPart{ngroups: ng, aggs: make([]aggState, len(g.Aggs))}
		scatterFirstRows(slot, p, gids, rows, c)
		for si, spec := range g.Aggs {
			st := &part.aggs[si]
			switch spec.Func {
			case Count:
				st.i = foldCount(gids, ng, c)
			case SumI:
				st.i = foldSumI64(gids, iargs[si][lo:hi], ng, c)
			case Sum:
				st.f = foldSumF64Morsels(gids, rows, fargs[si][lo:hi], ng, mr, c)
			case Avg:
				st.f = foldSumF64Morsels(gids, rows, fargs[si][lo:hi], ng, mr, c)
				st.i = foldCount(gids, ng, c)
			case Min:
				st.f = foldMinMaxF64(gids, fargs[si][lo:hi], ng, false, c)
			case Max:
				st.f = foldMinMaxF64(gids, fargs[si][lo:hi], ng, true, c)
			}
		}
		parts[p] = part
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Global merge: one sweep of slot in row order yields every group in
	// the global first-occurrence order the direct paths emit.
	ngroups := 0
	for _, part := range parts {
		ngroups += part.ngroups
	}
	refs, firstRow := sweepFirstRows(slot, ngroups, ctx.Ctr)
	ctx.Ctr.AggUpdates += int64(ngroups) * int64(len(g.Aggs))
	ctx.Ctr.MergeBytes += int64(ngroups) * int64(12+16*len(g.Aggs))

	schema := make(colstore.Schema, 0, len(g.Keys)+len(g.Aggs))
	cols := make([]colstore.Column, 0, len(g.Keys)+len(g.Aggs))
	for _, k := range g.Keys {
		c, err := in.ColByName(k)
		if err != nil {
			return nil, err
		}
		schema = append(schema, colstore.Field{Name: k, Type: c.Type()})
		cols = append(cols, c.Gather(firstRow))
	}
	ctx.Ctr.RandomAccesses += int64(ngroups) * int64(len(g.Keys))

	for si, spec := range g.Aggs {
		var col colstore.Column
		switch spec.Func {
		case Count, SumI:
			out := make([]int64, ngroups)
			for i, ref := range refs {
				p, lg := unpackGroupRef(ref)
				out[i] = parts[p].aggs[si].i[lg]
			}
			col = &colstore.Int64s{V: out}
		case Sum, Min, Max:
			out := make([]float64, ngroups)
			for i, ref := range refs {
				p, lg := unpackGroupRef(ref)
				out[i] = parts[p].aggs[si].f[lg]
			}
			col = &colstore.Float64s{V: out}
		case Avg:
			out := make([]float64, ngroups)
			for i, ref := range refs {
				p, lg := unpackGroupRef(ref)
				st := &parts[p].aggs[si]
				if st.i[lg] > 0 {
					out[i] = st.f[lg] / float64(st.i[lg])
				}
			}
			ctx.Ctr.FloatOps += int64(ngroups)
			col = &colstore.Float64s{V: out}
		}
		schema = append(schema, colstore.Field{Name: spec.Name, Type: col.Type()})
		cols = append(cols, col)
	}
	out, err := colstore.NewTable("", schema, cols)
	if err != nil {
		return nil, err
	}
	ctx.Ctr.TuplesMaterialized += int64(ngroups)
	ctx.Ctr.BytesMaterialized += out.SizeBytes()
	observe(ctx, in, out)
	return out, nil
}

// foldSumF64Morsels sums vals per group, cutting the fold at every morsel
// boundary of the original row numbers: within a morsel values add left
// to right, and completed morsel partials add in morsel order. That is
// bit-for-bit the association groupedMorsel produces with per-morsel
// ScatterSumF64 partials merged in morsel order.
func foldSumF64Morsels(gids, rows []int32, vals []float64, ng, morselRows int, ctr *exec.Counters) []float64 {
	tot := make([]float64, ng)
	cur := make([]float64, ng)
	lastM := make([]int32, ng)
	for i := range lastM {
		lastM[i] = -1
	}
	for i, gid := range gids {
		m := int32(int(rows[i]) / morselRows)
		if m != lastM[gid] {
			if lastM[gid] >= 0 {
				tot[gid] += cur[gid]
				cur[gid] = 0
			}
			lastM[gid] = m
		}
		cur[gid] += vals[i]
	}
	for gid := range tot {
		if lastM[gid] >= 0 {
			tot[gid] += cur[gid]
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.FloatOps += int64(len(gids)) + int64(ng)
	return tot
}

// foldCount counts rows per group.
func foldCount(gids []int32, ng int, ctr *exec.Counters) []int64 {
	out := make([]int64, ng)
	for _, gid := range gids {
		out[gid]++
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
	return out
}

// foldSumI64 sums int64 vals per group (exact, so no morsel cuts needed).
func foldSumI64(gids []int32, vals []int64, ng int, ctr *exec.Counters) []int64 {
	out := make([]int64, ng)
	for i, gid := range gids {
		out[gid] += vals[i]
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.IntOps += int64(len(gids))
	return out
}

// foldMinMaxF64 folds min (or max) per group with the strict comparison
// the Scatter kernels use: NaN inputs are skipped and equal-comparing
// values keep the first in row order, so the result is independent of
// the morsel decomposition.
func foldMinMaxF64(gids []int32, vals []float64, ng int, max bool, ctr *exec.Counters) []float64 {
	fill := math.Inf(1)
	if max {
		fill = math.Inf(-1)
	}
	out := make([]float64, ng)
	for i := range out {
		out[i] = fill
	}
	if max {
		for i, gid := range gids {
			if vals[i] > out[gid] {
				out[gid] = vals[i]
			}
		}
	} else {
		for i, gid := range gids {
			if vals[i] < out[gid] {
				out[gid] = vals[i]
			}
		}
	}
	ctr.AggUpdates += int64(len(gids))
	ctr.FloatOps += int64(len(gids))
	return out
}
