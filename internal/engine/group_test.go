package engine

import (
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
	"rfabric/internal/vec"
)

// TestGroupTableBatchMatchesValueLookup checks that the two entry points
// agree on group identity: a batch lookup over decoded lanes (CHAR read in
// place) and a boxed-value lookup of the same keys land on the same group
// ids, across enough distinct keys to grow the slot array several times.
func TestGroupTableBatchMatchesValueLookup(t *testing.T) {
	cols := []geometry.Column{
		{Type: geometry.Float64, Width: 8},
		{Type: geometry.Char, Width: 4},
		{Type: geometry.Int64, Width: 8},
	}
	rng := rand.New(rand.NewSource(3))
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0xfff8000000000000), 1, -1}
	chars := []string{"", "a", "a\x00", "a\x00b", "\x00a", "ab"}
	const n = 2000
	f64 := make([]float64, n)
	i64 := make([]int64, n)
	src := make([]byte, n*4)
	key := make([][]table.Value, n)
	for r := 0; r < n; r++ {
		f64[r] = floats[rng.Intn(len(floats))]
		i64[r] = int64(rng.Intn(40)) - 20
		c := chars[rng.Intn(len(chars))]
		copy(src[r*4:], c)
		key[r] = []table.Value{table.F64(f64[r]), table.Str(c), table.I64(i64[r])}
	}
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}

	batch := newGroupTable(cols, 1)
	gids := make([]int32, n)
	keys := []groupKeySrc{{f64: f64}, {src: src, stride: 4}, {i64: i64}}
	batch.lookupBatch(keys, sel, sel, make([]uint64, n), gids)

	boxed := newGroupTable(cols, 1)
	for r := 0; r < n; r++ {
		if got := boxed.lookup(key[r]); got != gids[r] {
			t.Fatalf("row %d: value lookup gid %d, batch gid %d (key %v)", r, got, gids[r], key[r])
		}
	}
	// -0/+0 and both NaN payloads are distinct; "a" and "a\x00" are not.
	if want := 6 * 5 * 40; len(batch.hashes) > want || len(batch.hashes) < want/2 {
		t.Fatalf("%d groups, want about %d", len(batch.hashes), want)
	}
	for gid := range batch.hashes {
		for k := range cols {
			a, b := batch.keys[k].key(int32(gid), make([]byte, 4)), boxed.keys[k].key(int32(gid), make([]byte, 4))
			if !sameValueBits(a, b) {
				t.Fatalf("group %d key %d: batch %+v, boxed %+v", gid, k, a, b)
			}
		}
	}
	if got := len(batch.keys[1].key(0, make([]byte, 8)).Bytes); got != 4 {
		t.Fatalf("CHAR key rebuilt with %d bytes, want the column width 4", got)
	}
}

// TestSortGroupsTotalOrder pins SortGroups as a total order over group
// identities: keys Compare cannot separate (-0.0/+0.0, NaN payloads) still
// land in one fixed order, whatever order the groups arrive in.
func TestSortGroupsTotalOrder(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8000000000000)
	want := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, math.Inf(1), negNaN, math.NaN()}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		var groups []GroupRow
		for _, i := range rng.Perm(len(want)) {
			groups = append(groups, GroupRow{Key: []table.Value{table.Str("k"), table.F64(want[i])}})
		}
		SortGroups(groups)
		for i, g := range groups {
			if math.Float64bits(g.Key[1].Float) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: position %d holds %v (bits %#x), want %v (bits %#x)", trial, i,
					g.Key[1].Float, math.Float64bits(g.Key[1].Float), want[i], math.Float64bits(want[i]))
			}
		}
	}
}

// TestGroupedOutputOrderDeterministic runs a query grouping on -0.0, +0.0
// and two NaN payloads: repeated runs, and the scalar and batch paths of
// ROW and PAR, emit identical Groups in identical order.
func TestGroupedOutputOrderDeterministic(t *testing.T) {
	sch := geometry.MustSchema(
		geometry.Column{Name: "k", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "v", Type: geometry.Int64, Width: 8},
	)
	keys := []float64{math.NaN(), 0, math.Float64frombits(0xfff8000000000000), math.Copysign(0, -1), 2}
	build := func() (*System, *table.Table) {
		sys := MustSystem(DefaultSystemConfig())
		const rows = 500
		tbl := table.MustNew("ord", sch, table.WithCapacity(rows),
			table.WithBaseAddr(sys.Arena.Alloc(int64(rows*sch.RowBytes()))))
		for r := 0; r < rows; r++ {
			tbl.MustAppend(0, table.F64(keys[(r*7)%len(keys)]), table.I64(int64(r)))
		}
		return sys, tbl
	}
	q := Query{GroupBy: []int{0}, Aggregates: []AggTerm{
		{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 1}}}}

	var first *Result
	for _, fs := range []bool{false, false, true} {
		for _, par := range []bool{false, true} {
			sys, tbl := build()
			var e Executor = &RowEngine{Tbl: tbl, Sys: sys, ForceScalar: fs}
			if par {
				e = &ParallelEngine{Tbl: tbl, Sys: sys, Par: ParallelConfig{Workers: 3, MorselRows: 64}, ForceScalar: fs}
			}
			r, err := e.Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Groups) != len(keys) {
				t.Fatalf("%s: %d groups, want %d", e.Name(), len(r.Groups), len(keys))
			}
			if first == nil {
				first = r
				continue
			}
			if err := sameGroups(first.Groups, r.Groups); err != nil {
				t.Fatalf("%s scalar=%v: %v", e.Name(), fs, err)
			}
		}
	}
}

// TestMergeAggMatchesAggResult checks the PAR merge conventions: folding
// per-partial final values reproduces a single fold's result, and zero-row
// partials contribute nothing.
func TestMergeAggMatchesAggResult(t *testing.T) {
	parts := [][]float64{{3, -1}, nil, {7}, {2, 2, -7}}
	for _, kind := range []expr.AggKind{expr.Count, expr.Sum, expr.Avg, expr.Min, expr.Max} {
		var whole, merged vec.AggState
		for _, xs := range parts {
			var part vec.AggState
			for _, x := range xs {
				part.Add(x)
				whole.Add(x)
			}
			mergeAgg(&merged, kind, aggResult(kind, part), int64(len(xs)))
		}
		if got, want := aggResult(kind, merged), aggResult(kind, whole); !got.Equal(want) {
			t.Fatalf("%s: merged %v, single fold %v", kind, got, want)
		}
	}
}

// TestGroupRowsAllocsConstant pins the grouped output's allocation count:
// every group's Key, Aggs and padded CHAR key come from flat backing
// arrays, so rows() costs the same allocations for 8 groups as for 4096,
// and the full-slice expressions keep one row's append from writing into
// the next row's key.
func TestGroupRowsAllocsConstant(t *testing.T) {
	cols := []geometry.Column{{Type: geometry.Int64, Width: 8}, {Type: geometry.Char, Width: 6}}
	terms := []AggTerm{{Kind: expr.Count}, {Kind: expr.Sum, Arg: expr.ColRef{Col: 0}}}
	table4 := func(n int) *groupTable {
		g := newGroupTable(cols, len(terms))
		for i := 0; i < n; i++ {
			gid := g.lookup([]table.Value{table.I64(int64(i)), table.Str("k")})
			g.counts[gid]++
			g.aggs(gid)[1].Add(float64(i))
		}
		return g
	}
	small, large := table4(8), table4(4096)
	a := allocsWithoutGC(t, 10, func() { small.rows(terms) })
	b := allocsWithoutGC(t, 10, func() { large.rows(terms) })
	if b > a {
		t.Fatalf("grouped output allocations grow with groups: %.0f for 8 groups, %.0f for 4096", a, b)
	}
	out := small.rows(terms)
	grown := append(out[0].Key, table.I64(-1))
	if &grown[0] == &out[0].Key[0] || !out[1].Key[0].Equal(table.I64(1)) {
		t.Fatal("appending to a group's key aliased the next group's key")
	}
	if w := len(out[3].Key[1].Bytes); w != 6 {
		t.Fatalf("CHAR key padded to %d bytes, want the column width 6", w)
	}
}
