package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/table"
)

var cmpOps = []expr.CmpOp{expr.Lt, expr.Le, expr.Eq, expr.Ne, expr.Ge, expr.Gt}

// boundary-heavy value pools
var i64Pool = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 42, math.MaxInt64 - 1, math.MaxInt64}
var f64Pool = []float64{math.Inf(-1), -1.5, math.Copysign(0, -1), 0, 0.25, 1e300, math.Inf(1), math.NaN()}
var charPool = []string{"", "a", "ash", "ash\x00x", "oak", "oakum", "zzzzzz"}

func randI64(rng *rand.Rand) int64 {
	if rng.Intn(3) == 0 {
		return i64Pool[rng.Intn(len(i64Pool))]
	}
	return rng.Int63() - rng.Int63()
}

func randF64(rng *rand.Rand) float64 {
	if rng.Intn(3) == 0 {
		return f64Pool[rng.Intn(len(f64Pool))]
	}
	return rng.NormFloat64() * 1e3
}

// TestFilterMatchesPredicateEval checks the integer and float filter kernels
// against the scalar Predicate.Eval path over boundary-heavy random lanes.
func TestFilterMatchesPredicateEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 512
	for trial := 0; trial < 50; trial++ {
		op := cmpOps[rng.Intn(len(cmpOps))]

		ints := make([]int64, n)
		for i := range ints {
			ints[i] = randI64(rng)
		}
		opI := randI64(rng)
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
		fail := make([]int16, n)
		for i := range fail {
			fail[i] = -1
		}
		out := FilterI64(ints, op, opI, sel, fail, 3)
		p := expr.Predicate{Op: op, Operand: table.I64(opI)}
		j := 0
		for i := 0; i < n; i++ {
			want := p.Eval(table.I64(ints[i]))
			if want {
				if j >= len(out) || out[j] != int32(i) {
					t.Fatalf("FilterI64: row %d should survive (%d %s %d)", i, ints[i], op, opI)
				}
				if fail[i] != -1 {
					t.Fatalf("FilterI64: surviving row %d has fail depth %d", i, fail[i])
				}
				j++
			} else if fail[i] != 3 {
				t.Fatalf("FilterI64: dropped row %d has fail depth %d, want 3", i, fail[i])
			}
		}
		if j != len(out) {
			t.Fatalf("FilterI64: %d survivors, want %d", len(out), j)
		}

		floats := make([]float64, n)
		for i := range floats {
			floats[i] = randF64(rng)
		}
		opF := randF64(rng)
		for i := range sel {
			sel[i] = int32(i)
			fail[i] = -1
		}
		outF := FilterF64(floats, op, opF, sel, fail, 0)
		pf := expr.Predicate{Op: op, Operand: table.F64(opF)}
		j = 0
		for i := 0; i < n; i++ {
			if pf.Eval(table.F64(floats[i])) {
				if j >= len(outF) || outF[j] != int32(i) {
					t.Fatalf("FilterF64: row %d should survive (%v %s %v)", i, floats[i], op, opF)
				}
				j++
			}
		}
		if j != len(outF) {
			t.Fatalf("FilterF64: %d survivors, want %d", len(outF), j)
		}
	}
}

// TestFilterCharMatchesPredicateEval checks the in-place CHAR kernel,
// including trailing-NUL padding and embedded NULs.
func TestFilterCharMatchesPredicateEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const width, n = 6, 256
	src := make([]byte, n*width)
	vals := make([]table.Value, n)
	for i := 0; i < n; i++ {
		s := charPool[rng.Intn(len(charPool))]
		copy(src[i*width:(i+1)*width], s)
		// The scalar comparison trims trailing NULs itself, so the unpadded
		// spelling is the same logical value the kernel sees padded in src.
		vals[i] = table.Str(s)
	}
	for trial := 0; trial < 30; trial++ {
		op := cmpOps[rng.Intn(len(cmpOps))]
		operand := charPool[rng.Intn(len(charPool))]
		padOp := make([]byte, width)
		copy(padOp, operand)
		opVal := table.Str(operand)

		sel := make([]int32, n)
		fail := make([]int16, n)
		for i := range sel {
			sel[i] = int32(i)
			fail[i] = -1
		}
		out := FilterChar(src, 0, width, width, op, TrimPad(padOp), sel, fail, 0)
		p := expr.Predicate{Op: op, Operand: opVal}
		j := 0
		for i := 0; i < n; i++ {
			if p.Eval(vals[i]) {
				if j >= len(out) || out[j] != int32(i) {
					t.Fatalf("FilterChar: row %d (%q %s %q) should survive", i, vals[i].Bytes, op, operand)
				}
				j++
			}
		}
		if j != len(out) {
			t.Fatalf("FilterChar: %d survivors, want %d", len(out), j)
		}
	}
}

// TestCmpCharMatchesValueCompare pins the CHAR comparison against
// table.Value.Compare for every pool pair.
func TestCmpCharMatchesValueCompare(t *testing.T) {
	const width = 8
	pad := func(s string) []byte {
		b := make([]byte, width)
		copy(b, s)
		return b
	}
	for _, a := range charPool {
		for _, b := range charPool {
			want := table.Str(a).Compare(table.Str(b))
			got := CmpChar(pad(a), TrimPad(pad(b)))
			if got != want {
				t.Fatalf("CmpChar(%q, %q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestDecodeKernels checks stride-aware decode against the binary codec,
// including Int32 sign extension.
func TestDecodeKernels(t *testing.T) {
	const n, stride, off = 64, 24, 4
	src := make([]byte, n*stride+off+8)
	wantI64 := make([]int64, n)
	wantI32 := make([]int64, n)
	wantF64 := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		v := randI64(rng)
		wantI64[i] = v
		binary.LittleEndian.PutUint64(src[off+i*stride:], uint64(v))
	}
	dst := make([]int64, n)
	DecodeI64(dst, src, off, stride, n)
	for i := range dst {
		if dst[i] != wantI64[i] {
			t.Fatalf("DecodeI64[%d] = %d, want %d", i, dst[i], wantI64[i])
		}
	}
	for i := 0; i < n; i++ {
		v := int32(rng.Uint32())
		wantI32[i] = int64(v)
		binary.LittleEndian.PutUint32(src[off+i*stride:], uint32(v))
	}
	DecodeI32(dst, src, off, stride, n)
	for i := range dst {
		if dst[i] != wantI32[i] {
			t.Fatalf("DecodeI32[%d] = %d, want %d (sign extension)", i, dst[i], wantI32[i])
		}
	}
	for i := 0; i < n; i++ {
		v := randF64(rng)
		wantF64[i] = v
		binary.LittleEndian.PutUint64(src[off+i*stride:], math.Float64bits(v))
	}
	dstF := make([]float64, n)
	DecodeF64(dstF, src, off, stride, n)
	for i := range dstF {
		if math.Float64bits(dstF[i]) != math.Float64bits(wantF64[i]) {
			t.Fatalf("DecodeF64[%d] = %v, want %v", i, dstF[i], wantF64[i])
		}
	}
}

// TestAggStateMatchesSequentialFold pins the accumulator update order
// (including its NaN min/max behavior) against a literal transcription of
// the engine's scalar accumulator.
func TestAggStateMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = randF64(rng)
		}
		var a AggState
		AddVals(&a, xs)

		var count int64
		var sum, min, max float64
		var any bool
		for _, x := range xs {
			count++
			sum += x
			if !any || x < min {
				min = x
			}
			if !any || x > max {
				max = x
			}
			any = true
		}
		if a.Count != count ||
			math.Float64bits(a.Sum) != math.Float64bits(sum) ||
			math.Float64bits(a.Min) != math.Float64bits(min) ||
			math.Float64bits(a.Max) != math.Float64bits(max) {
			t.Fatalf("AggState %+v, want count=%d sum=%v min=%v max=%v", a, count, sum, min, max)
		}
	}
}

// TestHashCharStopsAtNUL pins the CHAR hash window: bytes up to the first
// NUL, so padded and unpadded spellings of one logical value hash alike.
func TestHashCharStopsAtNUL(t *testing.T) {
	if HashChar(3, []byte("oak\x00\x00\x00")) != HashChar(3, []byte("oak")) {
		t.Fatal("padded CHAR hashes differently from unpadded")
	}
	if HashChar(3, []byte("oak\x00x")) != HashChar(3, []byte("oak")) {
		t.Fatal("bytes after an embedded NUL leaked into the hash")
	}
	if HashChar(3, []byte("oak")) == HashChar(4, []byte("oak")) {
		t.Fatal("column index not mixed into the hash")
	}
}

// TestGroupKernelsMatchPerValue checks the lane forms of the group-key hash
// against the per-value chain, and the grouped folds against folding each
// group's rows one at a time in row order.
func TestGroupKernelsMatchPerValue(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, width, groups = 300, 6, 7
	ints := make([]int64, n)
	floats := make([]float64, n)
	src := make([]byte, n*width)
	gids := make([]int32, n)
	for i := 0; i < n; i++ {
		ints[i] = randI64(rng)
		floats[i] = randF64(rng)
		copy(src[i*width:], charPool[rng.Intn(len(charPool))])
		gids[i] = int32(rng.Intn(groups))
	}
	sel := []int32{}
	for i := 0; i < n; i += 1 + rng.Intn(3) {
		sel = append(sel, int32(i))
	}
	g := gids[:len(sel)]

	h := make([]uint64, len(sel))
	for j := range h {
		h[j] = KeySeed
	}
	HashLaneI64(h, ints, sel)
	HashLaneF64(h, floats, sel)
	HashLaneChar(h, src, 0, width, width, sel)
	for j, r := range sel {
		want := HashKeyWord(KeySeed, uint64(ints[r]))
		want = HashKeyWord(want, math.Float64bits(floats[r]))
		want = HashKeyChar(want, TrimPad(src[int(r)*width:int(r+1)*width]))
		if h[j] != want {
			t.Fatalf("row %d: lane hash %#x, per-value hash %#x", r, h[j], want)
		}
	}

	const stride = 4
	xs := make([]float64, len(sel))
	for j, r := range sel {
		xs[j] = floats[r] * 2
	}
	got := make([]AggState, groups*stride)
	GroupAddCount(got, stride, 0, g)
	GroupAddF64(got, stride, 1, g, floats, sel)
	GroupAddI64(got, stride, 2, g, ints, sel)
	GroupAddVals(got, stride, 3, g, xs)
	want := make([]AggState, groups*stride)
	for j, r := range sel {
		base := int(g[j]) * stride
		want[base].AddCount(1)
		want[base+1].Add(floats[r])
		want[base+2].Add(float64(ints[r]))
		want[base+3].Add(xs[j])
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.Count != b.Count || a.Any != b.Any ||
			math.Float64bits(a.Sum) != math.Float64bits(b.Sum) ||
			math.Float64bits(a.Min) != math.Float64bits(b.Min) ||
			math.Float64bits(a.Max) != math.Float64bits(b.Max) {
			t.Fatalf("state %d: grouped fold %+v, per-row fold %+v", i, a, b)
		}
	}
}

// TestKernelsDoNotAllocate pins the zero-allocation property of every kernel
// on the steady-state scan path.
func TestKernelsDoNotAllocate(t *testing.T) {
	const n = BatchRows
	lane := make([]int64, n)
	laneF := make([]float64, n)
	src := make([]byte, n*16)
	sel := make([]int32, n)
	fail := make([]int16, n)
	dst := make([]bool, n)
	out := make([]float64, n)
	var st AggState
	hashes := make([]uint64, n)
	gids := make([]int32, n)
	groups := make([]AggState, 2)
	allocs := testing.AllocsPerRun(10, func() {
		for i := range sel {
			sel[i] = int32(i)
			fail[i] = -1
		}
		DecodeI64(lane, src, 0, 16, n)
		DecodeF64(laneF, src, 8, 16, n)
		s := FilterI64(lane, expr.Le, 0, sel, fail, 0)
		s = FilterF64(laneF, expr.Ge, -1, s, fail, 1)
		CmpBitmapI64(dst, lane, expr.Lt, 5, false)
		_ = ChecksumI64(1, lane, s)
		_ = ChecksumF64(2, laneF, s)
		_ = ChecksumChar(3, src, 0, 16, 6, s)
		CompactLaneF64(out[:len(s)], laneF, s)
		MulLanes(out[:len(s)], out[:len(s)])
		AddF64(&st, laneF, s)
		h := hashes[:len(s)]
		HashLaneI64(h, lane, s)
		HashLaneF64(h, laneF, s)
		HashLaneChar(h, src, 0, 16, 6, s)
		GroupAddCount(groups, 2, 0, gids[:len(s)])
		GroupAddF64(groups, 2, 1, gids[:len(s)], laneF, s)
	})
	if allocs != 0 {
		t.Fatalf("kernel chain allocates %.1f times per run, want 0", allocs)
	}
}
