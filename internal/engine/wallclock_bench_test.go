package engine_test

import (
	"testing"

	"rfabric/internal/engine"
	"rfabric/internal/fabric"
	"rfabric/internal/geometry"
	"rfabric/internal/sql"
	"rfabric/internal/table"
	"rfabric/internal/tpch"
)

// Wall-clock benchmarks for the vectorized scan paths. The modeled cycles of
// the scalar and batch paths are identical by construction (the charge-replay
// equivalence tests enforce it); these benchmarks measure the thing that DID
// change — host time and allocations per executed query. Run with:
//
//	go test ./internal/engine -run '^$' -bench Wallclock -benchmem
//
// Each sub-benchmark reports scalar/ and vectorized/ variants of the same
// engine and query, so the speedup and the allocation reduction read directly
// off the output. The benchmarks live in package engine_test so they can use
// the TPC-H generator (which itself imports engine for the query builders).

const benchRows = 64 * 1024

func benchLineitem(b *testing.B, sys *engine.System) *table.Table {
	b.Helper()
	sch := tpch.LineitemSchema()
	base := sys.Arena.Alloc(int64(benchRows * sch.RowBytes()))
	tbl, err := tpch.NewLineitem(benchRows, 1, table.WithBaseAddr(base))
	if err != nil {
		b.Fatal(err)
	}
	return tbl
}

// scanQuery is the full-table scan: every row passes and every column is
// consumed. This is the shape where tuple-at-a-time interpretation pays the
// most per row (one closure call, one boxed decode, and one hash per value),
// so it is the benchmark the vectorized path is gated on.
func scanQuery() engine.Query {
	sch := tpch.LineitemSchema()
	proj := make([]int, sch.NumColumns())
	for i := range proj {
		proj[i] = i
	}
	return engine.Query{Projection: proj}
}

func runWallclock(b *testing.B, build func(forceScalar bool) engine.Executor, reset func()) {
	b.Helper()
	for _, mode := range []struct {
		name        string
		forceScalar bool
	}{{"scalar", true}, {"vectorized", false}} {
		b.Run(mode.name, func(b *testing.B) {
			eng := build(mode.forceScalar)
			q := scanQuery()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				reset()
				b.StartTimer()
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkRowScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, func(fs bool) engine.Executor {
		return &engine.RowEngine{Tbl: tbl, Sys: sys, ForceScalar: fs}
	}, sys.ResetState)
}

func BenchmarkRMScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, func(fs bool) engine.Executor {
		return &engine.RMEngine{Tbl: tbl, Sys: sys, PushSelection: true, ForceScalar: fs}
	}, sys.ResetState)
}

func BenchmarkQ6Wallclock(b *testing.B) {
	for _, mode := range []struct {
		name        string
		forceScalar bool
	}{{"scalar", true}, {"vectorized", false}} {
		b.Run(mode.name, func(b *testing.B) {
			sys := engine.MustSystem(engine.DefaultSystemConfig())
			tbl := benchLineitem(b, sys)
			eng := &engine.RowEngine{Tbl: tbl, Sys: sys, ForceScalar: mode.forceScalar}
			q := tpch.Q6()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys.ResetState()
				b.StartTimer()
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQ1Wallclock measures TPC-H Q1, the grouped aggregation, on the
// RM path: the batch variant folds each batch into the group table through
// typed kernels, the scalar one probes it once per boxed row.
func BenchmarkQ1Wallclock(b *testing.B) {
	for _, mode := range []struct {
		name        string
		forceScalar bool
	}{{"scalar", true}, {"vectorized", false}} {
		b.Run(mode.name, func(b *testing.B) {
			sys := engine.MustSystem(engine.DefaultSystemConfig())
			tbl := benchLineitem(b, sys)
			eng := &engine.RMEngine{Tbl: tbl, Sys: sys, ForceScalar: mode.forceScalar}
			q := tpch.Q1()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys.ResetState()
				b.StartTimer()
				if _, err := eng.Execute(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParScanWallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	runWallclock(b, func(fs bool) engine.Executor {
		return &engine.ParallelEngine{Tbl: tbl, Sys: sys,
			Par:           engine.ParallelConfig{Workers: 8},
			PushSelection: true, ForceScalar: fs}
	}, sys.ResetState)
}

// BenchmarkSequenceCold and BenchmarkSequenceWarm measure the group cache's
// host-time effect on a repeated Q6-class scan: cold rebuilds the ephemeral
// view every iteration (no cache), warm replays the resident group after one
// priming run. The modeled-cycle savings are pinned by the sequence
// experiment; these report the wall-clock and allocation side.
func BenchmarkSequenceCold(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	eng := &engine.RMEngine{Tbl: tbl, Sys: sys}
	q := tpch.Q6()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys.ResetState()
		b.StartTimer()
		if _, err := eng.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequenceWarm(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	tbl := benchLineitem(b, sys)
	cache := fabric.NewGroupCache(64<<20, sys.Arena)
	eng := &engine.RMEngine{Tbl: tbl, Sys: sys, Cache: cache}
	q := tpch.Q6()
	if _, err := eng.Execute(q); err != nil { // prime the group
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys.ResetState()
		b.StartTimer()
		res, err := eng.Execute(q)
		if err != nil {
			b.Fatal(err)
		}
		if !res.CacheWarm {
			b.Fatal("warm benchmark ran cold")
		}
	}
}

// BenchmarkJoinQ3Wallclock measures the hash-join pipeline end to end: the
// Q3-class lineitem ⋈ orders query lowered from SQL. scalar and vectorized
// run it serially, with every side pinned to the scalar sinks or on the
// batch sinks (build buffers, batch probe); parallel runs the batch probe
// under the morsel-parallel executor.
func BenchmarkJoinQ3Wallclock(b *testing.B) {
	sys := engine.MustSystem(engine.DefaultSystemConfig())
	li := benchLineitem(b, sys)
	nOrders := tpch.OrdersFor(benchRows)
	osch := tpch.OrdersSchema()
	ord, err := tpch.NewOrders(nOrders, 2,
		table.WithBaseAddr(sys.Arena.Alloc(int64(nOrders*osch.RowBytes()))))
	if err != nil {
		b.Fatal(err)
	}
	lookup := func(name string) (*geometry.Schema, error) {
		if name == "orders" {
			return ord.Schema(), nil
		}
		return li.Schema(), nil
	}
	st, err := sql.Parse(tpch.Q3SQL)
	if err != nil {
		b.Fatal(err)
	}
	root, err := sql.LowerCatalog(st, lookup)
	if err != nil {
		b.Fatal(err)
	}
	jp, _, err := engine.FromJoinPlan(root, lookup)
	if err != nil {
		b.Fatal(err)
	}
	builds := func(forceScalar bool) []engine.Source {
		out := make([]engine.Source, len(jp.Stages))
		for i := range jp.Stages {
			out[i] = &engine.RMEngine{Tbl: ord, Sys: sys, ForceScalar: forceScalar}
		}
		return out
	}
	for _, mode := range []struct {
		name        string
		forceScalar bool
	}{{"scalar", true}, {"vectorized", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sys.ResetState()
				b.StartTimer()
				ex := &engine.JoinExec{
					Plan:   jp,
					Probe:  &engine.RMEngine{Tbl: li, Sys: sys, ForceScalar: mode.forceScalar},
					Builds: builds(mode.forceScalar),
				}
				if _, err := ex.Execute(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys.ResetState()
			b.StartTimer()
			ex := &engine.ParallelJoinExec{
				Plan:     jp,
				ProbeTbl: li,
				Sys:      sys,
				Par:      engine.ParallelConfig{Workers: 8},
				Builds:   builds(false),
			}
			if _, err := ex.Execute(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
