package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"rfabric/internal/colstore"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/index"
	"rfabric/internal/obs"
	"rfabric/internal/plan"
	"rfabric/internal/table"
)

// The batch join sinks promise what the batch scan does: the exact Load
// sequence and compute charges of the scalar sinks, so results, Breakdown,
// cache hierarchy statistics, spans and timelines match bit for bit. The
// fixtures below give every join key family its identity corners.

// joinProbeSchema and joinBuildSchema share key columns 0-3, one per key
// family: integral (BIGINT on the probe, INT on builds), DATE, DOUBLE and
// CHAR (of different widths). rk, a build row's position, carries the
// index IDX build sides descend.
func joinProbeSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "ki", Type: geometry.Int64, Width: 8},
		geometry.Column{Name: "kd", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "kf", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "kc", Type: geometry.Char, Width: 5},
		geometry.Column{Name: "val", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "tag", Type: geometry.Char, Width: 3},
	)
}

func joinBuildSchema() *geometry.Schema {
	return geometry.MustSchema(
		geometry.Column{Name: "ki", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "kd", Type: geometry.Date, Width: 4},
		geometry.Column{Name: "kf", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "kc", Type: geometry.Char, Width: 7},
		geometry.Column{Name: "w", Type: geometry.Int32, Width: 4},
		geometry.Column{Name: "x", Type: geometry.Float64, Width: 8},
		geometry.Column{Name: "rk", Type: geometry.Int64, Width: 8},
	)
}

const (
	joinProbeCols = 6
	joinBuildCols = 7
	joinRKCol     = 6
)

var (
	// -0.0 and +0.0 must join; neither NaN payload joins anything.
	joinFloatKeys = []float64{math.Copysign(0, -1), 0, math.NaN(),
		math.Float64frombits(0x7ff8000000000001), 1.5, -2.25}
	// "oak" and "oak\x00" are one key; embedded NULs are significant.
	joinCharKeys = []string{"oak", "oak\x00", "\x00oak", "o\x00k", "", "ash"}
	joinTags     = []string{"AA", "BB", "C"}
)

// joinValue draws one value of column col of a join fixture table.
func joinValue(rng *rand.Rand, col geometry.Column, row int) table.Value {
	switch col.Name {
	case "ki":
		v := int64(rng.Intn(8) - 1)
		if col.Type == geometry.Int32 {
			return table.I32(int32(v))
		}
		return table.I64(v)
	case "kd":
		return table.DateV(int32(rng.Intn(6)))
	case "kf":
		return table.F64(joinFloatKeys[rng.Intn(len(joinFloatKeys))])
	case "kc":
		return table.Str(joinCharKeys[rng.Intn(len(joinCharKeys))])
	case "val":
		return table.F64(rng.NormFloat64() * 100)
	case "tag":
		return table.Str(joinTags[rng.Intn(len(joinTags))])
	case "w":
		return table.I32(int32(rng.Intn(5)))
	case "x":
		return table.F64(rng.Float64())
	default: // rk
		return table.I64(int64(row))
	}
}

// joinVecFixture is one deterministic build of a probe table and three
// build tables on one System, with each build table's rk index and — when
// not versioned — its columnar copy. Two builds from the same arguments are
// byte-identical at identical simulated addresses.
type joinVecFixture struct {
	sys    *System
	tables []*table.Table // probe, then one per stage
	stores []*colstore.Store
	idx    []*index.BTree
}

func buildJoinVecFixture(t *testing.T, seed int64, mvcc bool, sizes []int) *joinVecFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	fx := &joinVecFixture{sys: MustSystem(DefaultSystemConfig())}
	for i, rows := range sizes {
		sch, name := joinBuildSchema(), fmt.Sprintf("b%d", i)
		if i == 0 {
			sch, name = joinProbeSchema(), "p"
		}
		stride := sch.RowBytes()
		opts := []table.Option{table.WithCapacity(rows)}
		if mvcc {
			stride += table.MVCCHeaderBytes
			opts = append(opts, table.WithMVCC())
		}
		opts = append(opts, table.WithBaseAddr(fx.sys.Arena.Alloc(int64(rows*stride))))
		tbl := table.MustNew(name, sch, opts...)
		for r := 0; r < rows; r++ {
			vals := make([]table.Value, sch.NumColumns())
			for c := range vals {
				vals[c] = joinValue(rng, sch.Column(c), r)
			}
			begin := uint64(1 + rng.Intn(3))
			idx := tbl.MustAppend(begin, vals...)
			if mvcc && rng.Intn(4) == 0 {
				if err := tbl.SetEndTS(idx, begin+uint64(1+rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
			}
		}
		fx.tables = append(fx.tables, tbl)
	}
	for _, tbl := range fx.tables[1:] {
		bt, err := index.Build(tbl, joinRKCol, fx.sys.Arena)
		if err != nil {
			t.Fatal(err)
		}
		fx.idx = append(fx.idx, bt)
		if !mvcc {
			store, err := colstore.FromTable(tbl, fx.sys.Arena)
			if err != nil {
				t.Fatal(err)
			}
			fx.stores = append(fx.stores, store)
		}
	}
	return fx
}

func (fx *joinVecFixture) lookup(name string) (*geometry.Schema, error) {
	for _, tbl := range fx.tables {
		if tbl.Name() == name {
			return tbl.Schema(), nil
		}
	}
	return nil, fmt.Errorf("no table %q", name)
}

// joinVecCase is one drawn join: key families per stage, where stage 1's
// key comes from, and the consumption shape.
type joinVecCase struct {
	root    *plan.Node
	grouped bool
}

// genJoinVecCase draws a three-stage join p ⋈ b1 ⋈ b2 ⋈ b3. Stage 0 joins
// the probe's key column of a random family with b1's; stage 1's key is
// b1's (buildKey) or the probe's column of its family; stage 2's key comes
// from any earlier side. Every build side filters on rk (so IDX applies)
// and sometimes on w; the probe sometimes on val. The consumption is a
// projection over random combined columns or a grouped aggregation with
// plain, derived, and build-side aggregates.
func genJoinVecCase(rng *rand.Rand, snapshot *uint64, buildKey, grouped bool, sizes []int) joinVecCase {
	scan := func(name string) *plan.Node {
		n := plan.NewScan(name, "", nil)
		n.Snapshot = snapshot
		return n
	}
	offs := []int{0, joinProbeCols, joinProbeCols + joinBuildCols, joinProbeCols + 2*joinBuildCols}
	build := func(k int) *plan.Node {
		preds := expr.Conjunction{{Col: joinRKCol, Op: expr.Ge, Operand: table.I64(int64(rng.Intn(3)))}}
		if rng.Intn(2) == 0 {
			preds = append(preds, expr.Predicate{Col: 4, Op: expr.Le, Operand: table.I32(int32(1 + rng.Intn(4)))})
		}
		return scan(fmt.Sprintf("b%d", k)).Filter(preds)
	}
	probe := scan("p")
	if rng.Intn(2) == 0 {
		probe = probe.Filter(expr.Conjunction{{Col: 4, Op: expr.Lt, Operand: table.F64(rng.NormFloat64() * 100)}})
	}
	fam := []int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}
	root := probe.Join(build(1), fam[0], fam[0])
	pk1 := fam[1]
	if buildKey {
		pk1 += offs[1]
	}
	root = root.Join(build(2), pk1, fam[1])
	root = root.Join(build(3), offs[rng.Intn(3)]+fam[2], fam[2])

	width := offs[3] + joinBuildCols
	if !grouped {
		var cols []int
		for n := 2 + rng.Intn(5); n > 0; n-- {
			cols = append(cols, rng.Intn(width))
		}
		return joinVecCase{root: root.Project(cols)}
	}
	// Group keys avoid DOUBLE columns so the reference comparison, whose
	// key equality is SQL's, stays exact.
	keys := []int{5, offs[1] + 3, offs[2] + 4, offs[3] + 1, 1, 0}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	aggs := []plan.Agg{
		{Kind: expr.Count},
		{Kind: expr.Sum, Arg: expr.ColRef{Col: 4}},
		{Kind: expr.Min, Arg: expr.ColRef{Col: offs[2] + 5}},
		{Kind: expr.Sum, Arg: expr.Binary{Op: expr.Mul, L: expr.ColRef{Col: 4},
			R: expr.Binary{Op: expr.Sub, L: expr.Const{V: 1}, R: expr.ColRef{Col: offs[1] + 5}}}},
		{Kind: expr.Avg, Arg: expr.ColRef{Col: offs[3] + 5}},
	}
	return joinVecCase{root: root.Aggregate(keys[:1+rng.Intn(2)], aggs), grouped: true}
}

// joinBuildKinds and joinProbeKinds are the access paths the suite puts on
// each side; scalar pins every batch-capable source to the scalar sink.
var joinBuildKinds = []string{"ROW", "RM", "COL", "IDX"}

func (fx *joinVecFixture) buildSource(kind string, k int, scalar bool, tr *obs.Tracer) Source {
	tbl := fx.tables[k+1]
	switch kind {
	case "ROW":
		return &RowEngine{Tbl: tbl, Sys: fx.sys, Tracer: tr, ForceScalar: scalar}
	case "RM":
		return &RMEngine{Tbl: tbl, Sys: fx.sys, Tracer: tr, ForceScalar: scalar}
	case "COL":
		return &ColEngine{Store: fx.stores[k], Sys: fx.sys, Tracer: tr, ForceScalar: scalar}
	default:
		return &IndexEngine{Tbl: tbl, Sys: fx.sys, Idx: fx.idx[k], Tracer: tr}
	}
}

// runJoinVec executes p with the given probe and build kinds on fx, traced
// and timeline-sampled.
func runJoinVec(t *testing.T, fx *joinVecFixture, p *JoinPlan, probeKind, buildKind string, scalar bool) (*Result, *obs.Tracer, *obs.Timeline) {
	t.Helper()
	tr := obs.NewTracer("join")
	tl := obs.NewTimeline(2000, fx.sys.Cfg.DRAM.Banks)
	tr.AttachTimeline(tl)
	fx.sys.AttachTimeline(tl)
	defer fx.sys.DetachTimeline()
	builds := make([]Source, len(p.Stages))
	for k := range builds {
		builds[k] = fx.buildSource(buildKind, k, scalar, tr)
	}
	var res *Result
	var err error
	probe := fx.tables[0]
	switch probeKind {
	case "PAR":
		res, err = (&ParallelJoinExec{Plan: p, ProbeTbl: probe, Sys: fx.sys, Builds: builds,
			Par: ParallelConfig{Workers: 4, MorselRows: 256}, Tracer: tr, forceScalar: scalar}).Execute()
	default:
		var src Source
		switch probeKind {
		case "ROW":
			src = &RowEngine{Tbl: probe, Sys: fx.sys, Tracer: tr, ForceScalar: scalar}
		case "RM":
			src = &RMEngine{Tbl: probe, Sys: fx.sys, Tracer: tr, ForceScalar: scalar}
		case "RM-offload":
			src = &RMEngine{Tbl: probe, Sys: fx.sys, Tracer: tr, ForceScalar: scalar, Offload: true}
		}
		res, err = (&JoinExec{Plan: p, Probe: src, Builds: builds}).Execute()
	}
	if err != nil {
		t.Fatalf("%s probe, %s builds (scalar=%v): %v", probeKind, buildKind, scalar, err)
	}
	tl.Finish(res.Breakdown.TotalCycles)
	return res, tr, tl
}

// TestVectorizedJoinMatchesScalarExactly is the join half of the
// charge-replay property test. Random three-stage joins — BIGINT⋈INT, DATE,
// DOUBLE (±0.0, two NaN payloads) and CHAR (widths 5 and 7, embedded NULs)
// keys, 1:N build keys, stage 1 keyed from a build side or from the probe,
// projections and grouped aggregations, with and without MVCC snapshots —
// run with ROW, RM, RM+Offload (Bloom) and PAR (4 workers, 256-row morsels)
// probes over ROW, RM, COL and IDX builds. The batch sinks must match the
// scalar sinks exactly (results to the float bit, Breakdown, hierarchy
// statistics, span trees and timelines), spans must reconcile with the
// Breakdown, and both must agree with the independent reference join.
func TestVectorizedJoinMatchesScalarExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	probeKinds := []string{"ROW", "RM", "RM-offload", "PAR"}
	var matched int
	var most int64
	for trial := 0; trial < 16; trial++ {
		mvcc := trial%4 >= 2
		seed := rng.Int63()
		sizes := []int{1 + rng.Intn(2000), 8 + rng.Intn(16), 6 + rng.Intn(14), 6 + rng.Intn(10)}
		var snapshot *uint64
		if mvcc {
			ts := uint64(1 + rng.Intn(5))
			snapshot = &ts
		}
		qrng := rand.New(rand.NewSource(seed ^ 0x5eed))
		c := genJoinVecCase(qrng, snapshot, trial%2 == 0, trial%4 == 1 || trial%4 == 2, sizes)
		name := fmt.Sprintf("trial%02d/mvcc=%v/grouped=%v", trial, mvcc, c.grouped)
		t.Run(name, func(t *testing.T) {
			fixture := func() *joinVecFixture { return buildJoinVecFixture(t, seed, mvcc, sizes) }
			ref := fixture()
			p, _, err := FromJoinPlan(c.root, ref.lookup)
			if err != nil {
				t.Fatalf("FromJoinPlan: %v", err)
			}
			want := referenceJoin(p, materializeAt(ref.tables[0], snapshot), materializeAt(ref.tables[1], snapshot),
				materializeAt(ref.tables[2], snapshot), materializeAt(ref.tables[3], snapshot))
			if want.RowsPassed > 0 {
				matched++
			}
			most = max(most, want.RowsPassed)
			for _, pk := range probeKinds {
				for _, bk := range joinBuildKinds {
					if mvcc && bk == "COL" {
						continue // the columnar copy has no versions
					}
					label := pk + " probe/" + bk + " builds"
					sfx, vfx := fixture(), fixture()
					rs, trs, tls := runJoinVec(t, sfx, p, pk, bk, true)
					rv, trv, tlv := runJoinVec(t, vfx, p, pk, bk, false)
					requireExactMatch(t, label, rs, rv, sfx.sys, vfx.sys)
					if rs.RowsScanned != rv.RowsScanned || rs.Offload != rv.Offload {
						t.Fatalf("%s: scanned %d/%d, offload %q/%q", label, rs.RowsScanned, rv.RowsScanned, rs.Offload, rv.Offload)
					}
					if at := trv.Root().AttributedCycles(); at != rv.Breakdown.TotalCycles {
						t.Fatalf("%s: root span attributes %d cycles, breakdown totals %d", label, at, rv.Breakdown.TotalCycles)
					}
					if a, b := mustJSON(t, trs.Root()), mustJSON(t, trv.Root()); a != b {
						t.Fatalf("%s: span trees differ\nscalar: %s\nvector: %s", label, a, b)
					}
					if a, b := mustJSON(t, tls), mustJSON(t, tlv); a != b {
						t.Fatalf("%s: timelines differ", label)
					}
					if err := rv.EquivalentTo(want, 1e-9); err != nil {
						t.Fatalf("%s disagrees with the reference join: %v", label, err)
					}
				}
			}
		})
	}
	// The draw must keep exercising real joins: most trials match, and one
	// matches more rows than a batch holds, so match buffers flush mid-batch.
	if matched < 10 || most <= vecBatchRows {
		t.Errorf("weak fixture: %d of 16 trials matched rows, at most %d matches", matched, most)
	}
}

// allocsWithoutGC is testing.AllocsPerRun with collections off. A
// collection during the measurement empties sync.Pools (fmt's printer pool,
// used for span attributes) and refilling one counts as an allocation, so
// only a collection-free count is exact. Under the race detector, whose
// runtime perturbs the count, the calling test skips.
func allocsWithoutGC(t *testing.T, runs int, f func()) float64 {
	if raceEnabled {
		t.Skip("the race runtime perturbs AllocsPerRun")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJoinProbeAllocsConstant pins the batch probe's allocation-free steady
// state: over one fixed 60-row build side, a Q3-class join's allocations do
// not grow from 4k to 16k probe rows, on RM and ROW probes.
func TestJoinProbeAllocsConstant(t *testing.T) {
	f := newJoinPlanFixture(t, 16*1024, 60, 7)
	p := q3ClassPlan(f, t)
	small := buildJoinTable(t, f.sys, "fact", factSchema(), materialize(f.fact)[:4*1024], false)
	probes := map[string]func(tbl *table.Table) Source{
		"RM":  func(tbl *table.Table) Source { return &RMEngine{Tbl: tbl, Sys: f.sys} },
		"ROW": func(tbl *table.Table) Source { return &RowEngine{Tbl: tbl, Sys: f.sys} },
	}
	for name, probe := range probes {
		measure := func(tbl *table.Table) float64 {
			exec := func() {
				f.sys.ResetState()
				ex := &JoinExec{Plan: p, Probe: probe(tbl), Builds: []Source{&RMEngine{Tbl: f.dim, Sys: f.sys}}}
				if _, err := ex.Execute(); err != nil {
					t.Fatal(err)
				}
			}
			exec()
			return allocsWithoutGC(t, 5, exec)
		}
		if n, m := measure(small), measure(f.fact); m > n {
			t.Errorf("%s probe: join allocations grow with probe rows: %.1f allocs at 4k rows, %.1f at 16k", name, n, m)
		}
	}
}
