package vec

import "math"

// Group-key hashing and grouped folds for the engine's group table. A group
// key hashes as the FNV chain of its columns in GROUP BY order: integer keys
// by their sign-extended payload, DOUBLE keys by their IEEE-754 bits, CHAR
// keys by their bytes up to the first NUL (the same mixers as the value
// checksum). The per-value and per-lane forms produce the same hash for the
// same key, so boxed-value and batch lookups share one table.

// KeySeed is the hash of the empty group key.
const KeySeed uint64 = fnvOffset

// HashKeyWord continues a group-key hash with one integer payload or float's
// bits.
func HashKeyWord(h, x uint64) uint64 { return mix8(h, x) }

// HashKeyChar continues a group-key hash with one CHAR field.
func HashKeyChar(h uint64, b []byte) uint64 { return hashCharSeeded(h, b) }

// HashLaneI64 continues h[j] with the integer key lane[sel[j]].
func HashLaneI64(h []uint64, lane []int64, sel []int32) {
	for j, r := range sel {
		h[j] = mix8(h[j], uint64(lane[r]))
	}
}

// HashLaneF64 continues h[j] with the bits of the float key lane[sel[j]].
func HashLaneF64(h []uint64, lane []float64, sel []int32) {
	for j, r := range sel {
		h[j] = mix8(h[j], math.Float64bits(lane[r]))
	}
}

// HashLaneChar continues h[j] with the CHAR key of row rows[j], read in place
// at off + rows[j]*stride.
func HashLaneChar(h []uint64, src []byte, off, stride, width int, rows []int32) {
	for j, r := range rows {
		o := off + int(r)*stride
		h[j] = hashCharSeeded(h[j], src[o:o+width])
	}
}

// Grouped folds: states is a flat gid-major array with stride states per
// group, and term t of group gids[j] receives row j. Rows fold in selection
// order, so every group's float accumulation is sequential exactly like the
// scalar loop.

// GroupAddCount registers one COUNT(*) row per entry of gids.
func GroupAddCount(states []AggState, stride, t int, gids []int32) {
	for _, g := range gids {
		states[int(g)*stride+t].Count++
	}
}

// GroupAddI64 folds lane[sel[j]] into group gids[j].
func GroupAddI64(states []AggState, stride, t int, gids []int32, lane []int64, sel []int32) {
	for j, r := range sel {
		states[int(gids[j])*stride+t].Add(float64(lane[r]))
	}
}

// GroupAddF64 folds lane[sel[j]] into group gids[j].
func GroupAddF64(states []AggState, stride, t int, gids []int32, lane []float64, sel []int32) {
	for j, r := range sel {
		states[int(gids[j])*stride+t].Add(lane[r])
	}
}

// GroupAddVals folds the compacted xs[j] into group gids[j].
func GroupAddVals(states []AggState, stride, t int, gids []int32, xs []float64) {
	for j, x := range xs {
		states[int(gids[j])*stride+t].Add(x)
	}
}
