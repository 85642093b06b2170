package main

import (
	"fmt"

	"rfabric"
)

// counters are the cumulative hardware-model and cache counters of one DB.
type counters struct {
	loads, dramFills, prefetchIssued, prefetchHits uint64 // cache
	rowHits, rowMisses, gatherBytes                uint64 // dram
	rowsScanned, rowsShipped, bytesShipped, chunks uint64 // fabric
	gcHits, gcMisses, gcInvalidations              uint64 // group cache
	planHits, planMisses                           uint64 // plan cache
}

func takeCounters(db *rfabric.DB) counters {
	sys := db.System()
	h, m, f := sys.Hier.Stats(), sys.Mem.Stats(), sys.Fab.Stats()
	g, p := db.GroupCacheStats(), db.PlanCache()
	return counters{
		loads: h.Loads, dramFills: h.DRAMFills, prefetchIssued: h.PrefetchIssued, prefetchHits: h.PrefetchHits,
		rowHits: m.RowHits, rowMisses: m.RowMisses, gatherBytes: m.GatherBytes,
		rowsScanned: f.RowsScanned, rowsShipped: f.RowsShipped, bytesShipped: f.BytesShipped, chunks: f.Chunks,
		gcHits: g.Hits, gcMisses: g.Misses, gcInvalidations: g.Invalidations,
		planHits: p.Hits, planMisses: p.Misses,
	}
}

// delta returns c minus prev, field by field.
func (c counters) delta(prev counters) counters {
	return counters{
		loads: c.loads - prev.loads, dramFills: c.dramFills - prev.dramFills,
		prefetchIssued: c.prefetchIssued - prev.prefetchIssued, prefetchHits: c.prefetchHits - prev.prefetchHits,
		rowHits: c.rowHits - prev.rowHits, rowMisses: c.rowMisses - prev.rowMisses, gatherBytes: c.gatherBytes - prev.gatherBytes,
		rowsScanned: c.rowsScanned - prev.rowsScanned, rowsShipped: c.rowsShipped - prev.rowsShipped,
		bytesShipped: c.bytesShipped - prev.bytesShipped, chunks: c.chunks - prev.chunks,
		gcHits: c.gcHits - prev.gcHits, gcMisses: c.gcMisses - prev.gcMisses, gcInvalidations: c.gcInvalidations - prev.gcInvalidations,
		planHits: c.planHits - prev.planHits, planMisses: c.planMisses - prev.planMisses,
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer computes the per-layer metrics of a trace run: timings and
// Breakdown means from the traced pass t (counters c and CPU samples taken
// over it), tail and write latency and GC counts from the untraced pass p,
// and the tracing overhead from both. It also returns why each metric that reads 0
// is unavailable on this workload.
func perLayer(w *workload, p, t *passStats, c counters, samples []cpuSample) (map[string]metric, []string) {
	reads := float64(max(len(t.readLat), 1))
	m := map[string]metric{}
	var notes []string
	na := func(name, why string) {
		m[name] = metric{0, m[name].Unit}
		notes = append(notes, fmt.Sprintf("%s on %s: %s", name, w.name, why))
	}

	shares, _ := hostShares(samples)
	other := 100.0
	for _, mod := range append(hostModules, "runtime_gc", "runtime_alloc") {
		m["host_share."+mod] = metric{shares[mod], "%"}
		other -= shares[mod]
	}
	m["host_share.other"] = metric{max(other, 0), "%"}

	m["cache.loads_per_query"] = metric{float64(c.loads) / reads, "count"}
	m["cache.miss_ratio"] = metric{ratio(c.dramFills, c.loads), "ratio"}
	m["cache.mem_demand_cycles_per_query"] = metric{float64(t.memDemand) / reads, "cycles"}
	m["cache.prefetch_useful_ratio"] = metric{ratio(c.prefetchHits, c.prefetchIssued), "ratio"}
	m["dram.bytes_per_query"] = metric{float64(t.bytesFromDRAM) / reads, "B"}
	m["dram.gather_bytes_per_query"] = metric{float64(c.gatherBytes) / reads, "B"}
	m["dram.row_hit_ratio"] = metric{ratio(c.rowHits, c.rowHits+c.rowMisses), "ratio"}
	m["fabric.producer_cycles_per_query"] = metric{float64(t.producer) / reads, "cycles"}
	m["fabric.bytes_shipped_per_query"] = metric{float64(c.bytesShipped) / reads, "B"}
	m["fabric.ship_ratio"] = metric{ratio(c.rowsShipped, c.rowsScanned), "ratio"}
	m["fabric.chunks_per_query"] = metric{float64(c.chunks) / reads, "count"}
	m["fabric.groupcache_hit_ratio"] = metric{ratio(c.gcHits, c.gcHits+c.gcMisses), "ratio"}
	m["fabric.groupcache_invalidations_per_write"] = metric{ratio(c.gcInvalidations, uint64(len(t.writeLat))), "count"}
	m["engine.compute_cycles_per_query"] = metric{float64(t.compute) / reads, "cycles"}
	m["engine.join_build_cycles_per_query"] = metric{float64(t.joinBuild) / reads, "cycles"}
	m["engine.join_probe_cycles_per_query"] = metric{float64(t.joinProbe) / reads, "cycles"}
	m["engine.exec_ms"] = metric{millis(median(t.execute)), "ms"}
	m["sql.compile_us"] = metric{micros(median(t.compile)), "us"}
	m["db.plancache_hit_ratio"] = metric{ratio(c.planHits, c.planHits+c.planMisses), "ratio"}
	m["db.insert_us"] = metric{micros(median(t.inserts)), "us"}
	m["query_p99_ms"] = metric{millis(tail(p.readLat)), "ms"}
	m["write_p50_us"] = metric{micros(median(p.writeLat)), "us"}
	m["write_p99_us"] = metric{micros(tail(p.writeLat)), "us"}
	untraced, tracedP50 := median(p.readLat), median(t.readLat)
	m["obs.untraced_query_p50_ms"] = metric{millis(untraced), "ms"}
	m["obs.traced_query_p50_ms"] = metric{millis(tracedP50), "ms"}
	m["obs.trace_overhead_pct"] = metric{100 * (tracedP50.Seconds()/untraced.Seconds() - 1), "%"}
	m["runtime.gc_cycles_per_op"] = metric{float64(p.gcCycles) / float64(len(p.readLat)+len(p.writeLat)), "count"}
	m["error_frac"] = metric{float64(p.failed+t.failed) / float64(2*(len(p.readLat)+len(p.writeLat))), "ratio"}

	if w.parallel {
		for _, name := range []string{"cache.loads_per_query", "cache.miss_ratio", "cache.prefetch_useful_ratio",
			"dram.gather_bytes_per_query", "dram.row_hit_ratio", "fabric.bytes_shipped_per_query",
			"fabric.ship_ratio", "fabric.chunks_per_query"} {
			na(name, "morsels run on System clones whose traffic the shared System's counters miss (modeled figures come from the merged Breakdown)")
		}
	}
	switch {
	case t.joinBuild == 0:
		na("engine.join_build_cycles_per_query", "no join statements")
		na("engine.join_probe_cycles_per_query", "no join statements")
	case t.joinProbe == 0:
		na("engine.join_probe_cycles_per_query", "the probe runs inside the parallel morsel detail spans")
	}
	if len(t.inserts) == 0 {
		for _, name := range []string{"db.insert_us", "write_p50_us", "write_p99_us", "fabric.groupcache_invalidations_per_write"} {
			na(name, "no writes")
		}
	}
	if c.gcHits+c.gcMisses == 0 {
		na("fabric.groupcache_hit_ratio", "group cache off")
	}
	if c.planHits+c.planMisses == 0 {
		na("db.plancache_hit_ratio", "reads do not go through DB.Prepare")
	}
	return m, notes
}
