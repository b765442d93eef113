package exec

import (
	"fmt"

	"wimpi/internal/colstore"
)

// KeysFromColumn extracts 64-bit join/group keys from a column, optionally
// through a selection vector (nil selects all rows). String columns yield
// dictionary codes, dates yield day numbers, and bools yield 0/1.
// Float columns are not valid keys.
func KeysFromColumn(col colstore.Column, sel []int32, ctr *Counters) ([]int64, error) {
	switch c := col.(type) {
	case *colstore.RLEInt64:
		return KeysFromRLE(c, sel, ctr), nil
	case *colstore.Int64s:
		if sel == nil {
			out := make([]int64, len(c.V))
			copy(out, c.V)
			ctr.SeqBytes += int64(len(c.V)) * 8
			return out, nil
		}
		out := make([]int64, len(sel))
		for i, s := range sel {
			out[i] = c.V[s]
		}
		ctr.RandomAccesses += int64(len(sel))
		return out, nil
	case *colstore.Dates:
		if sel == nil {
			out := make([]int64, len(c.V))
			for i, v := range c.V {
				out[i] = int64(v)
			}
			ctr.SeqBytes += int64(len(c.V)) * 4
			return out, nil
		}
		out := make([]int64, len(sel))
		for i, s := range sel {
			out[i] = int64(c.V[s])
		}
		ctr.RandomAccesses += int64(len(sel))
		return out, nil
	case *colstore.Strings:
		if sel == nil {
			out := make([]int64, len(c.Codes))
			for i, v := range c.Codes {
				out[i] = int64(v)
			}
			ctr.SeqBytes += int64(len(c.Codes)) * 4
			return out, nil
		}
		out := make([]int64, len(sel))
		for i, s := range sel {
			out[i] = int64(c.Codes[s])
		}
		ctr.RandomAccesses += int64(len(sel))
		return out, nil
	case *colstore.Bools:
		n := col.Len()
		if sel == nil {
			out := make([]int64, n)
			for i, v := range c.V {
				if v {
					out[i] = 1
				}
			}
			ctr.SeqBytes += int64(n)
			return out, nil
		}
		out := make([]int64, len(sel))
		for i, s := range sel {
			if c.V[s] {
				out[i] = 1
			}
		}
		ctr.RandomAccesses += int64(len(sel))
		return out, nil
	default:
		return nil, fmt.Errorf("exec: column type %s cannot be a key", col.Type())
	}
}

// CombineKeys packs two key vectors into one, giving lo loBits low bits.
// All lo values must fit in loBits and all hi values in 63-loBits bits;
// out-of-range values return an error, preventing silent key collisions.
func CombineKeys(hi, lo []int64, loBits uint, ctr *Counters) ([]int64, error) {
	if len(hi) != len(lo) {
		return nil, fmt.Errorf("exec: CombineKeys length mismatch: %d vs %d", len(hi), len(lo))
	}
	limitLo := int64(1) << loBits
	limitHi := int64(1) << (63 - loBits)
	out := make([]int64, len(hi))
	for i := range hi {
		h, l := hi[i], lo[i]
		if l < 0 || l >= limitLo || h < 0 || h >= limitHi {
			// The aborted scan still compared i+1 rows; charge them so
			// error paths cost what they did.
			ctr.IntOps += int64(i+1) * 2
			return nil, fmt.Errorf("exec: CombineKeys value out of range at %d: hi=%d lo=%d loBits=%d", i, h, l, loBits)
		}
		out[i] = h<<loBits | l
	}
	ctr.IntOps += int64(len(hi)) * 2
	return out, nil
}

// SplitKey unpacks a key produced by CombineKeys.
func SplitKey(k int64, loBits uint) (hi, lo int64) {
	return k >> loBits, k & (int64(1)<<loBits - 1)
}

// AsInt64 returns the column's values as a dense int64 slice, decoding
// RLE. The result aliases the column's storage for dense columns. This
// is the explicit materialization point for operators without a coded
// path (aggregate arguments, sort keys); the decode is charged at the
// compressed read footprint plus per-row unpack work.
func AsInt64(c colstore.Column, ctr *Counters) ([]int64, error) {
	switch v := c.(type) {
	case *colstore.Int64s:
		return v.V, nil
	case *colstore.RLEInt64:
		return KeysFromRLE(v, nil, ctr), nil
	default:
		return nil, fmt.Errorf("exec: cannot treat %s column as int64", c.Type())
	}
}
