package engine

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/table"
)

// The vectorized scan paths promise more than result equivalence: the
// charge-replay loop must issue the exact Load sequence and compute charges
// of the scalar interpreter, so the full modeled Breakdown and the cache
// hierarchy statistics must match bit for bit. Because the RM path allocates
// fabric delivery windows from the system arena per execution, comparing two
// executions exactly requires two identically built (system, table) pairs —
// a shared system would hand the second run different addresses.

// vecFixture is one deterministic (system, table, column store) build.
type vecFixture struct {
	sys   *System
	tbl   *table.Table
	store *colstore.Store
}

// buildVecFixture reconstructs the identical fixture for a seed. Two calls
// with the same arguments produce byte-identical tables at identical
// simulated addresses on independent systems.
func buildVecFixture(t *testing.T, seed int64, mvcc bool, rows int, wantStore bool) *vecFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return buildVecFixtureWith(t, rng, genSchema(rng), genValue, mvcc, rows, wantStore)
}

// buildVecFixtureWith builds a fixture over sch whose values (and MVCC
// versions) are drawn from rng through gen.
func buildVecFixtureWith(t *testing.T, rng *rand.Rand, sch *geometry.Schema, gen func(*rand.Rand, geometry.Column) table.Value, mvcc bool, rows int, wantStore bool) *vecFixture {
	t.Helper()
	sys := MustSystem(DefaultSystemConfig())
	stride := sch.RowBytes()
	if mvcc {
		stride += table.MVCCHeaderBytes
	}
	base := sys.Arena.Alloc(int64(rows * stride))
	opts := []table.Option{table.WithCapacity(rows), table.WithBaseAddr(base)}
	if mvcc {
		opts = append(opts, table.WithMVCC())
	}
	tbl, err := table.New("vecprop", sch, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		vals := make([]table.Value, sch.NumColumns())
		for c := range vals {
			vals[c] = gen(rng, sch.Column(c))
		}
		begin := uint64(1 + rng.Intn(3))
		idx := tbl.MustAppend(begin, vals...)
		if mvcc && rng.Intn(4) == 0 {
			if err := tbl.SetEndTS(idx, begin+uint64(1+rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		}
	}
	fx := &vecFixture{sys: sys, tbl: tbl}
	if wantStore {
		store, err := colstore.FromTable(tbl, sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		fx.store = store
	}
	return fx
}

// requireExactMatch compares two results down to modeled cycles and float
// bits, plus the two systems' cache hierarchy statistics.
func requireExactMatch(t *testing.T, name string, scalar, vector *Result, scalarSys, vectorSys *System) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("%s: scalar/vectorized mismatch: %s", name, fmt.Sprintf(format, args...))
	}
	if scalar.RowsScanned != vector.RowsScanned {
		fail("RowsScanned %d != %d", scalar.RowsScanned, vector.RowsScanned)
	}
	if scalar.RowsPassed != vector.RowsPassed {
		fail("RowsPassed %d != %d", scalar.RowsPassed, vector.RowsPassed)
	}
	if scalar.Checksum != vector.Checksum {
		fail("Checksum %#x != %#x", scalar.Checksum, vector.Checksum)
	}
	if len(scalar.Aggs) != len(vector.Aggs) {
		fail("Aggs len %d != %d", len(scalar.Aggs), len(vector.Aggs))
	}
	for i := range scalar.Aggs {
		if !sameValueBits(scalar.Aggs[i], vector.Aggs[i]) {
			fail("Aggs[%d] %+v != %+v", i, scalar.Aggs[i], vector.Aggs[i])
		}
	}
	if err := sameGroups(scalar.Groups, vector.Groups); err != nil {
		fail("%v", err)
	}
	if scalar.Breakdown != vector.Breakdown {
		fail("Breakdown\nscalar: %+v\nvector: %+v", scalar.Breakdown, vector.Breakdown)
	}
	if s, v := scalarSys.Hier.Stats(), vectorSys.Hier.Stats(); s != v {
		fail("hierarchy stats\nscalar: %+v\nvector: %+v", s, v)
	}
}

// sameGroups requires two grouped outputs to agree exactly: group count
// and order, every key, every count, and every aggregate's bits.
func sameGroups(x, y []GroupRow) error {
	if len(x) != len(y) {
		return fmt.Errorf("Groups len %d != %d", len(x), len(y))
	}
	for g := range x {
		a, b := x[g], y[g]
		if a.Count != b.Count {
			return fmt.Errorf("Groups[%d] Count %d != %d", g, a.Count, b.Count)
		}
		if len(a.Key) != len(b.Key) || len(a.Aggs) != len(b.Aggs) {
			return fmt.Errorf("Groups[%d] shape %d/%d keys, %d/%d aggs", g, len(a.Key), len(b.Key), len(a.Aggs), len(b.Aggs))
		}
		for i := range a.Key {
			if !sameValueBits(a.Key[i], b.Key[i]) {
				return fmt.Errorf("Groups[%d] Key[%d] %+v != %+v", g, i, a.Key[i], b.Key[i])
			}
		}
		for i := range a.Aggs {
			if !sameValueBits(a.Aggs[i], b.Aggs[i]) {
				return fmt.Errorf("Groups[%d] Aggs[%d] %+v != %+v", g, i, a.Aggs[i], b.Aggs[i])
			}
		}
	}
	return nil
}

// sameValueBits reports whether two values are identical down to type,
// integer payload, float bits, and CHAR bytes (padding included).
func sameValueBits(a, b table.Value) bool {
	return a.Type == b.Type && a.Int == b.Int &&
		math.Float64bits(a.Float) == math.Float64bits(b.Float) &&
		bytes.Equal(a.Bytes, b.Bytes)
}

// TestVectorizedMatchesScalarExactly is the charge-replay property test: for
// randomized schemas, data, and queries, the batch path of every engine
// produces the identical Result — checksum, float-bit-exact aggregates, and
// the complete modeled Breakdown — and drives the cache hierarchy through the
// identical state trajectory.
func TestVectorizedMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(20230805))
	const plainTrials, mvccTrials = 40, 30
	for i := 0; i < plainTrials; i++ {
		t.Run(fmt.Sprintf("plain/%03d", i), func(t *testing.T) {
			vectorizedTrial(t, rng, false)
		})
	}
	for i := 0; i < mvccTrials; i++ {
		t.Run(fmt.Sprintf("mvcc/%03d", i), func(t *testing.T) {
			vectorizedTrial(t, rng, true)
		})
	}
}

func vectorizedTrial(t *testing.T, rng *rand.Rand, mvcc bool) {
	t.Helper()
	seed := rng.Int63()
	rows := 1 + rng.Intn(3000)

	// The query must come from fixture-independent randomness, drawn against
	// the schema both fixtures share.
	qrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	schRng := rand.New(rand.NewSource(seed))
	sch := genSchema(schRng)
	var snapshot *uint64
	if mvcc {
		ts := uint64(qrng.Intn(6))
		snapshot = &ts
	}
	q := genQuery(qrng, sch, snapshot)
	if err := q.Validate(sch); err != nil {
		t.Fatalf("generated query invalid: %v", err)
	}

	requireVariantsMatch(t, q, mvcc, func(wantStore bool) *vecFixture {
		return buildVecFixture(t, seed, mvcc, rows, wantStore)
	})
}

// vecVariant is one engine configuration the scalar/vectorized property
// tests run both ways.
type vecVariant struct {
	name  string
	build func(fx *vecFixture, forceScalar bool) Executor
}

// vecVariants lists ROW, RM, RM-push, PAR (4 workers, 256-row morsels), and
// — without MVCC, which the columnar copy does not support — COL.
func vecVariants(mvcc bool) []vecVariant {
	variants := []vecVariant{
		{"ROW", func(fx *vecFixture, fs bool) Executor {
			return &RowEngine{Tbl: fx.tbl, Sys: fx.sys, ForceScalar: fs}
		}},
		{"RM", func(fx *vecFixture, fs bool) Executor {
			return &RMEngine{Tbl: fx.tbl, Sys: fx.sys, ForceScalar: fs}
		}},
		{"RM-push", func(fx *vecFixture, fs bool) Executor {
			return &RMEngine{Tbl: fx.tbl, Sys: fx.sys, PushSelection: true, ForceScalar: fs}
		}},
		{"PAR", func(fx *vecFixture, fs bool) Executor {
			return &ParallelEngine{Tbl: fx.tbl, Sys: fx.sys,
				Par: ParallelConfig{Workers: 4, MorselRows: 256}, ForceScalar: fs}
		}},
	}
	if !mvcc {
		variants = append(variants, vecVariant{"COL", func(fx *vecFixture, fs bool) Executor {
			return &ColEngine{Store: fx.store, Sys: fx.sys, ForceScalar: fs}
		}})
	}
	return variants
}

// requireVariantsMatch runs q scalar and vectorized under every variant and
// requires exact matches. fixture builds one identical (system, table)
// build per call, with the column store when asked.
func requireVariantsMatch(t *testing.T, q Query, mvcc bool, fixture func(wantStore bool) *vecFixture) {
	t.Helper()
	for _, v := range vecVariants(mvcc) {
		// Fresh twin fixtures per variant: each Execute consumes arena
		// addresses (fabric windows), so runs must not share a system.
		scalarFx := fixture(v.name == "COL")
		vectorFx := fixture(v.name == "COL")
		rs, err := v.build(scalarFx, true).Execute(q)
		if err != nil {
			t.Fatalf("%s scalar: %v\nquery: %+v", v.name, err, q)
		}
		rv, err := v.build(vectorFx, false).Execute(q)
		if err != nil {
			t.Fatalf("%s vectorized: %v\nquery: %+v", v.name, err, q)
		}
		requireExactMatch(t, v.name, rs, rv, scalarFx.sys, vectorFx.sys)
	}
}

// groupedSchema is the grouped property test's table: key candidates of
// every identity-sensitive kind (DOUBLE with signed zeros and NaNs, CHAR
// with embedded and trailing NULs, DATE, INT) beside numeric measures.
func groupedSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "kf", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "kc", Type: geometry.Char, Width: 6},
		geometry.Column{Name: "kd", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "ki", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "price", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "qty", Type: geometry.Int64, Width: 8},
	)
}

var (
	groupedFloatKeys = []float64{math.Copysign(0, -1), 0, math.NaN(),
		math.Float64frombits(0xfff8000000000000), -2.25, 1.5}
	groupedCharKeys = []string{"oak", "oak\x00", "oak\x00x", "\x00oak", "", "ash"}
)

// groupedValue draws one value of groupedSchema's column col.
func groupedValue(rng *rand.Rand, col geometry.Column) table.Value {
	switch col.Name {
	case "kf":
		return table.F64(groupedFloatKeys[rng.Intn(len(groupedFloatKeys))])
	case "kc":
		return table.Str(groupedCharKeys[rng.Intn(len(groupedCharKeys))])
	case "kd":
		return table.DateV(int32(rng.Intn(4)))
	case "ki":
		return table.I32(int32(rng.Intn(3) - 1))
	case "price":
		return table.F64(rng.NormFloat64() * 1e3)
	default:
		return table.I64(int64(rng.Intn(50)))
	}
}

// genGroupedQuery draws 2-3 group keys over groupedSchema's key columns,
// 1-3 aggregates (plain, constant-derived, and a Q1-style column product),
// and 0-2 predicates.
func genGroupedQuery(rng *rand.Rand, sch *geometry.Schema, snapshot *uint64) Query {
	q := Query{Snapshot: snapshot}
	keys := rng.Perm(4)
	q.GroupBy = keys[:2+rng.Intn(2)]
	q.Aggregates = genAggs(rng, []int{0, 2, 3, 4, 5})
	if rng.Intn(2) == 0 {
		q.Aggregates = append(q.Aggregates, AggTerm{Kind: expr.Sum, Arg: expr.Binary{Op: expr.Mul,
			L: expr.ColRef{Col: 4},
			R: expr.Binary{Op: expr.Sub, L: expr.Const{V: 1}, R: expr.ColRef{Col: 5}}}})
	}
	for i := rng.Intn(3); i > 0; i-- {
		c := 2 + rng.Intn(4)
		ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Ne, expr.Ge, expr.Gt}
		q.Selection = append(q.Selection, expr.Predicate{
			Col: c, Op: ops[rng.Intn(len(ops))], Operand: groupedValue(rng, sch.Column(c))})
	}
	return q
}

// TestVectorizedGroupedMatchesScalarExactly is the grouped half of the
// charge-replay property test: GROUP BY over 2-3 keys mixing DOUBLE (-0.0,
// +0.0, two NaN payloads), CHAR (embedded and trailing NULs), DATE and INT
// runs on the batch path of every engine — with and without MVCC snapshots
// — and matches the scalar interpreter exactly: groups, their order, keys,
// counts and aggregate float bits, the modeled Breakdown, and the cache
// hierarchy's trajectory.
func TestVectorizedGroupedMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	sch := groupedSchema()
	for i := 0; i < 40; i++ {
		mvcc := i%2 == 1
		name := fmt.Sprintf("plain/%03d", i)
		if mvcc {
			name = fmt.Sprintf("mvcc/%03d", i)
		}
		seed := rng.Int63()
		rows := 1 + rng.Intn(3000)
		qrng := rand.New(rand.NewSource(seed ^ 0x5eed))
		var snapshot *uint64
		if mvcc {
			ts := uint64(qrng.Intn(6))
			snapshot = &ts
		}
		q := genGroupedQuery(qrng, sch, snapshot)
		t.Run(name, func(t *testing.T) {
			if err := q.Validate(sch); err != nil {
				t.Fatalf("generated query invalid: %v", err)
			}
			offs := make([]int, sch.NumColumns())
			for c := range offs {
				offs[c] = sch.Offset(c)
			}
			if _, ok := compileScanProg(q, sch, q.Selection, nil, offs, rowVecCharges); !ok {
				t.Fatalf("grouped query did not compile to the batch path: %+v", q)
			}
			fixture := func(wantStore bool) *vecFixture {
				return buildVecFixtureWith(t, rand.New(rand.NewSource(seed)), sch, groupedValue, mvcc, rows, wantStore)
			}
			requireVariantsMatch(t, q, mvcc, fixture)

			// The fabric's offloaded group fold keys its groups with its own
			// code; when the aggregates are offloadable it is an oracle
			// that shares nothing with the group table.
			if _, ok := offloadProgram(q); !ok {
				return
			}
			fx := fixture(false)
			want, err := (&RMEngine{Tbl: fx.tbl, Sys: fx.sys, Offload: true}).Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if want.Offload == "" {
				t.Fatalf("offloadable grouped query ran CPU-side: %+v", q)
			}
			fx = fixture(false)
			got, err := (&RowEngine{Tbl: fx.tbl, Sys: fx.sys}).Execute(q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameGroups(want.Groups, got.Groups); err != nil {
				t.Fatalf("vectorized ROW disagrees with the fabric group fold: %v\nquery: %+v", err, q)
			}
		})
	}
}

// TestVectorizedBoundaryValues drives the kernels through the value-domain
// corners where scalar semantics are easy to miss: CHAR operands with
// trailing and embedded NULs, NaN floats on both sides of a predicate,
// extreme integers, and negative 32-bit values (sign extension).
func TestVectorizedBoundaryValues(t *testing.T) {
	cols := []geometry.Column{
		{Name: "i64", Type: geometry.Int64, Width: 8},
		{Name: "f64", Type: geometry.Float64, Width: 8},
		{Name: "ch", Type: geometry.Char, Width: 6},
		{Name: "i32", Type: geometry.Int32, Width: 4},
	}
	sch, err := geometry.NewSchema(cols...)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	rowsData := [][]table.Value{
		{table.I64(math.MaxInt64), table.F64(nan), table.Str("oak"), table.I32(-1)},
		{table.I64(math.MinInt64), table.F64(0), table.Str(""), table.I32(math.MinInt32)},
		{table.I64(0), table.F64(math.Inf(1)), table.Str("oak\x00x"), table.I32(math.MaxInt32)},
		{table.I64(-1), table.F64(math.Inf(-1)), table.Str("oakum"), table.I32(0)},
		{table.I64(1), table.F64(-0.0), table.Str("o"), table.I32(7)},
	}
	queries := []Query{
		{Projection: []int{0, 1, 2, 3}},
		{Projection: []int{2}, Selection: expr.Conjunction{
			{Col: 2, Op: expr.Eq, Operand: table.Str("oak")}}},
		{Projection: []int{0}, Selection: expr.Conjunction{
			{Col: 2, Op: expr.Ge, Operand: table.Str("")}}},
		{Projection: []int{1}, Selection: expr.Conjunction{
			{Col: 1, Op: expr.Le, Operand: table.F64(nan)}}},
		{Projection: []int{3}, Selection: expr.Conjunction{
			{Col: 3, Op: expr.Lt, Operand: table.I32(0)},
			{Col: 0, Op: expr.Ne, Operand: table.I64(0)}}},
		{Aggregates: []AggTerm{
			{Kind: expr.Sum, Arg: expr.ColRef{Col: 1}},
			{Kind: expr.Min, Arg: expr.ColRef{Col: 0}},
			{Kind: expr.Max, Arg: expr.ColRef{Col: 3}},
			{Kind: expr.Sum, Arg: expr.Binary{Op: expr.Mul,
				L: expr.ColRef{Col: 1}, R: expr.ColRef{Col: 3}}},
		}},
	}

	build := func() (*System, *table.Table) {
		sys := MustSystem(DefaultSystemConfig())
		base := sys.Arena.Alloc(int64(len(rowsData) * sch.RowBytes()))
		tbl := table.MustNew("edge", sch, table.WithBaseAddr(base))
		for _, vals := range rowsData {
			tbl.MustAppend(0, vals...)
		}
		return sys, tbl
	}

	for qi, q := range queries {
		for _, engineName := range []string{"ROW", "RM"} {
			scalarSys, scalarTbl := build()
			vectorSys, vectorTbl := build()
			var es, ev Executor
			if engineName == "ROW" {
				es = &RowEngine{Tbl: scalarTbl, Sys: scalarSys, ForceScalar: true}
				ev = &RowEngine{Tbl: vectorTbl, Sys: vectorSys}
			} else {
				es = &RMEngine{Tbl: scalarTbl, Sys: scalarSys, ForceScalar: true}
				ev = &RMEngine{Tbl: vectorTbl, Sys: vectorSys}
			}
			rs, err := es.Execute(q)
			if err != nil {
				t.Fatalf("query %d %s scalar: %v", qi, engineName, err)
			}
			rv, err := ev.Execute(q)
			if err != nil {
				t.Fatalf("query %d %s vectorized: %v", qi, engineName, err)
			}
			requireExactMatch(t, fmt.Sprintf("query %d %s", qi, engineName),
				rs, rv, scalarSys, vectorSys)
		}
	}
}

// TestVectorizedScanAllocsConstant pins the zero-alloc batch property: once
// the engine's scratch is warm, the allocations of a full-table scan do not
// grow with the row count — i.e. the per-batch steady state allocates
// nothing (a 16k-row table runs 4x the batches of a 4k-row one).
func TestVectorizedScanAllocsConstant(t *testing.T) {
	build := func(rows int) (*System, *table.Table) {
		rng := rand.New(rand.NewSource(7))
		sys := MustSystem(DefaultSystemConfig())
		sch := genSchema(rng)
		base := sys.Arena.Alloc(int64(rows * sch.RowBytes()))
		tbl := table.MustNew("alloc", sch, table.WithCapacity(rows), table.WithBaseAddr(base))
		for r := 0; r < rows; r++ {
			vals := make([]table.Value, sch.NumColumns())
			for c := range vals {
				vals[c] = genValue(rng, sch.Column(c))
			}
			tbl.MustAppend(0, vals...)
		}
		return sys, tbl
	}
	queries := map[string]Query{
		"projection": {
			Projection: []int{0},
			Selection:  expr.Conjunction{{Col: 0, Op: expr.Lt, Operand: table.I64(50)}},
		},
		// Columns 2 and 3 are CHAR over six words, so both tables hold the
		// same 36 groups: only the per-row work scales.
		"grouped": {
			GroupBy: []int{2, 3},
			Aggregates: []AggTerm{{Kind: expr.Count},
				{Kind: expr.Sum, Arg: expr.Binary{Op: expr.Mul, L: expr.ColRef{Col: 0}, R: expr.Const{V: 2}}}},
		},
	}

	measure := func(q Query, rows int) float64 {
		sys, tbl := build(rows)
		eng := &RowEngine{Tbl: tbl, Sys: sys}
		if _, err := eng.Execute(q); err != nil { // warm the scratch
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			sys.ResetState()
			if _, err := eng.Execute(q); err != nil {
				t.Fatal(err)
			}
		})
	}

	for name, q := range queries {
		small := measure(q, 4*1024)
		large := measure(q, 16*1024)
		if large > small {
			t.Fatalf("%s: vectorized scan allocations grow with rows: %.1f allocs at 4k rows, %.1f at 16k", name, small, large)
		}
	}
}
