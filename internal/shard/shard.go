// Package shard implements horizontal partitioning over fabric-equipped
// nodes. The paper keeps horizontal partitioning a physical-design-time
// decision but argues it composes naturally with the fabric (§III-A: "the
// data system can request the desired column group on a sharding key range,
// and the Relational Fabric will directly return the corresponding data").
// A sharded table routes rows by a range-partitioned key; queries prune to
// the shards their key-range predicates touch, scatter execution across a
// bounded worker pool (each shard on its own simulated system — its node),
// and gather-merge. Modeled time is the makespan of scheduling the touched
// shards onto the pool plus the coordinator's merge cost: with enough
// workers that is the slowest touched shard, the nodes working in parallel.
package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"rfabric/internal/engine"
	"rfabric/internal/expr"
	"rfabric/internal/geometry"
	"rfabric/internal/obs"
	"rfabric/internal/table"
)

// Table is a range-sharded table: shard i holds keys in
// [bounds[i-1], bounds[i]), with implicit -inf and +inf at the ends.
type Table struct {
	name   string
	schema *geometry.Schema
	keyCol int
	bounds []int64 // len = shards-1, ascending upper bounds (exclusive)
	nodes  []*node

	// Workers bounds the coordinator's scatter pool: how many shards
	// execute concurrently (each on its own node's private System). Zero or
	// negative means runtime.GOMAXPROCS(0). Results are identical for every
	// value; only modeled coordinator time and wall-clock time change.
	Workers int

	// Tracer, when set, receives a span whose schedule/merge leaves
	// reconcile with Result.Cycles; per-shard sub-traces hang under a
	// Detail subtree (their modeled time overlaps the makespan). Each
	// touched shard gets its own private tracer, adopted in shard order
	// after the workers join, so tracing never perturbs determinism.
	Tracer *obs.Tracer
	// Reg, when set, receives rfabric_shard_* series describing each run.
	Reg *obs.Registry
}

type node struct {
	sys *engine.System
	tbl *table.Table
}

// New creates a sharded table with len(bounds)+1 shards, each with its own
// simulated system and capacity rows of reserved space.
func New(name string, schema *geometry.Schema, keyCol int, bounds []int64, capacityPerShard int, cfg engine.SystemConfig) (*Table, error) {
	if schema == nil {
		return nil, errors.New("shard: nil schema")
	}
	if keyCol < 0 || keyCol >= schema.NumColumns() {
		return nil, fmt.Errorf("shard: key column %d out of range", keyCol)
	}
	switch schema.Column(keyCol).Type {
	case geometry.Int64, geometry.Int32, geometry.Date:
	default:
		return nil, fmt.Errorf("shard: key column type %s is not range-shardable", schema.Column(keyCol).Type)
	}
	if capacityPerShard <= 0 {
		return nil, fmt.Errorf("shard: capacity per shard must be positive, got %d", capacityPerShard)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] >= bounds[i] {
			return nil, fmt.Errorf("shard: bounds not strictly ascending at %d", i)
		}
	}
	st := &Table{name: name, schema: schema, keyCol: keyCol, bounds: append([]int64(nil), bounds...)}
	for i := 0; i <= len(bounds); i++ {
		sys, err := engine.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		base := sys.Arena.Alloc(int64(capacityPerShard * schema.RowBytes()))
		tbl, err := table.New(fmt.Sprintf("%s.shard%d", name, i), schema,
			table.WithCapacity(capacityPerShard), table.WithBaseAddr(base))
		if err != nil {
			return nil, err
		}
		st.nodes = append(st.nodes, &node{sys: sys, tbl: tbl})
	}
	return st, nil
}

// NumShards returns the shard count.
func (t *Table) NumShards() int { return len(t.nodes) }

// ShardRows returns per-shard row counts.
func (t *Table) ShardRows() []int {
	out := make([]int, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.tbl.NumRows()
	}
	return out
}

// shardOf routes a key.
func (t *Table) shardOf(key int64) int {
	return sort.Search(len(t.bounds), func(i int) bool { return key < t.bounds[i] })
}

// Insert routes one row by its sharding key.
func (t *Table) Insert(vals ...table.Value) error {
	if len(vals) != t.schema.NumColumns() {
		return fmt.Errorf("shard: got %d values for %d columns", len(vals), t.schema.NumColumns())
	}
	key := vals[t.keyCol]
	switch key.Type {
	case geometry.Int64, geometry.Int32, geometry.Date:
	default:
		return fmt.Errorf("shard: key value has type %s", key.Type)
	}
	_, err := t.nodes[t.shardOf(key.Int)].tbl.Append(1, vals...)
	return err
}

// keyRange extracts the [lo, hi] bounds the conjunction imposes on the
// sharding key; open ends are ±inf.
func (t *Table) keyRange(sel expr.Conjunction) (lo, hi int64) {
	lo, hi = math.MinInt64, math.MaxInt64
	for _, p := range sel {
		if p.Col != t.keyCol {
			continue
		}
		v := p.Operand.Int
		switch p.Op {
		case expr.Eq:
			if v > lo {
				lo = v
			}
			if v < hi {
				hi = v
			}
		case expr.Ge:
			if v > lo {
				lo = v
			}
		case expr.Gt:
			if v+1 > lo {
				lo = v + 1
			}
		case expr.Le:
			if v < hi {
				hi = v
			}
		case expr.Lt:
			if v-1 < hi {
				hi = v - 1
			}
		}
	}
	return lo, hi
}

// prune returns the shards whose key range intersects [lo, hi].
func (t *Table) prune(lo, hi int64) []int {
	if lo > hi {
		return nil
	}
	first := t.shardOf(lo)
	last := t.shardOf(hi)
	out := make([]int, 0, last-first+1)
	for s := first; s <= last; s++ {
		out = append(out, s)
	}
	return out
}

// Result is the merged outcome of a sharded query.
type Result struct {
	RowsPassed    int64
	Checksum      uint64
	Aggs          []table.Value
	Groups        []engine.GroupRow
	ShardsTouched int
	// Cycles is the modeled time: the makespan of scheduling the touched
	// shards' executions onto the coordinator's worker pool plus a
	// per-shard merge charge. With at least as many workers as touched
	// shards this is the slowest shard (the nodes run fully in parallel);
	// with one worker it degenerates to the sum of shards.
	Cycles uint64
}

// mergeCyclesPerShard is the coordinator's cost to fold one shard's reply.
const mergeCyclesPerShard = 200

// Execute runs the query on the RM path of every shard the selection cannot
// rule out and merges the results. AVG aggregates are rejected: they do not
// merge from per-shard finals (rewrite as SUM and COUNT).
func (t *Table) Execute(q engine.Query) (*Result, error) {
	if err := q.Validate(t.schema); err != nil {
		return nil, err
	}
	for _, a := range q.Aggregates {
		if a.Kind == expr.Avg {
			return nil, errors.New("shard: AVG does not merge across shards; query SUM and COUNT instead")
		}
	}
	lo, hi := t.keyRange(q.Selection)
	touched := t.prune(lo, hi)

	sp := t.Tracer.Begin("SHARD.execute")
	defer t.Tracer.End()
	sp.SetAttr("engine", "SHARD")
	sp.SetAttr("table", t.name)

	workers := t.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(touched) {
		workers = len(touched)
	}

	// Per-shard tracers: each worker writes only its own slot; sub-roots
	// are adopted in shard order after the join so the span tree is
	// deterministic under any scheduling.
	var tracers []*obs.Tracer
	if sp != nil {
		tracers = make([]*obs.Tracer, len(touched))
		for i, s := range touched {
			tracers[i] = obs.NewTracer(fmt.Sprintf("shard[%d]", s))
		}
	}

	// Scatter: workers pull touched shards off a shared counter and run
	// each on its node's private System. Race-clean by ownership — shard s
	// appears once in touched, and nodes[s].sys is driven only by the
	// worker holding index s.
	results := make([]*engine.Result, len(touched))
	errs := make([]error, len(touched))
	run := func(i int) {
		n := t.nodes[touched[i]]
		n.sys.ResetState()
		eng := &engine.RMEngine{Tbl: n.tbl, Sys: n.sys, PushSelection: true}
		if tracers != nil {
			eng.Tracer = tracers[i]
		}
		results[i], errs[i] = eng.Execute(q)
	}
	if workers <= 1 {
		for i := range touched {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(touched) {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", touched[i], err)
		}
	}

	// Gather: fold partials in shard order so the merge is deterministic
	// regardless of scheduling. Scalar aggregate merges are initialized up
	// front so a fully-pruned key range still yields COUNT=0/SUM=0 exactly
	// like a single-node run over zero qualifying rows.
	out := &Result{ShardsTouched: len(touched)}
	var mergedAggs []*aggMerge
	if len(q.Aggregates) > 0 && len(q.GroupBy) == 0 {
		mergedAggs = newAggMerges(q)
	}
	groups := map[string]*groupMerge{}

	perShard := make([]uint64, len(touched))
	for i, r := range results {
		out.RowsPassed += r.RowsPassed
		out.Checksum += r.Checksum
		perShard[i] = r.Breakdown.TotalCycles
		for j, v := range r.Aggs {
			mergedAggs[j].fold(v, r.RowsPassed)
		}
		for _, g := range r.Groups {
			k := groupKey(g.Key)
			gm, ok := groups[k]
			if !ok {
				gm = &groupMerge{key: g.Key, aggs: newAggMerges(q)}
				groups[k] = gm
			}
			gm.count += g.Count
			for j, v := range g.Aggs {
				gm.aggs[j].fold(v, g.Count)
			}
		}
	}
	out.Cycles = engine.ScheduleCycles(perShard, workers) +
		uint64(len(touched))*mergeCyclesPerShard
	if sp != nil {
		mergeCharge := uint64(len(touched)) * mergeCyclesPerShard
		sp.Leaf("schedule.makespan", out.Cycles-mergeCharge, 0)
		sp.Leaf("merge", mergeCharge, 0)
		sp.SetAttr("workers", strconv.Itoa(workers))
		sp.SetAttr("shards_touched", strconv.Itoa(len(touched)))
		sp.SetAttr("shards_total", strconv.Itoa(len(t.nodes)))
		detail := sp.AddChild("shards")
		detail.Detail = true
		// Replay the deterministic list schedule to place each shard on a
		// worker lane (see engine.ScheduleAssignments).
		workerOf, starts, _ := engine.ScheduleAssignments(perShard, workers)
		tl := t.Tracer.Timeline()
		for i, tr := range tracers {
			root := tr.Root()
			root.SetAttr("worker", strconv.Itoa(workerOf[i]))
			root.SetAttr("start_cycles", strconv.FormatUint(starts[i], 10))
			detail.Adopt(root)
			tl.AddWorkerSlice(workerOf[i], fmt.Sprintf("shard[%d]", touched[i]), starts[i], perShard[i])
		}
		// Shards ran on their nodes' private Systems, which the timeline does
		// not hook, so the coordinator drives the clock across the makespan.
		tl.TickThrough(out.Cycles)
	}
	if t.Reg != nil {
		labels := obs.Labels{"table": t.name}
		t.Reg.Counter("rfabric_shard_queries_total", labels).Add(1)
		t.Reg.Counter("rfabric_shard_shards_touched_total", labels).Add(uint64(len(touched)))
		t.Reg.Counter("rfabric_shard_shards_pruned_total", labels).Add(uint64(len(t.nodes) - len(touched)))
		t.Reg.Counter("rfabric_shard_cycles_total", labels).Add(out.Cycles)
	}

	if mergedAggs != nil {
		out.Aggs = make([]table.Value, len(mergedAggs))
		for i, m := range mergedAggs {
			out.Aggs[i] = m.result()
		}
	}
	if len(groups) > 0 {
		for _, gm := range groups {
			row := engine.GroupRow{Key: gm.key, Count: gm.count, Aggs: make([]table.Value, len(gm.aggs))}
			for i, m := range gm.aggs {
				row.Aggs[i] = m.result()
			}
			out.Groups = append(out.Groups, row)
		}
		engine.SortGroups(out.Groups)
	}
	return out, nil
}

type groupMerge struct {
	key   []table.Value
	count int64
	aggs  []*aggMerge
}

func groupKey(vals []table.Value) string {
	s := ""
	for _, v := range vals {
		s += v.String() + "\x00"
	}
	return s
}

// aggMerge folds per-shard final aggregate values.
type aggMerge struct {
	kind  expr.AggKind
	sumI  int64
	sumF  float64
	isInt bool
	minV  table.Value
	maxV  table.Value
	any   bool
}

func newAggMerges(q engine.Query) []*aggMerge {
	out := make([]*aggMerge, len(q.Aggregates))
	for i, a := range q.Aggregates {
		out[i] = &aggMerge{kind: a.Kind}
	}
	return out
}

// fold merges one shard's final value; rows is how many rows contributed to
// it on that shard. A shard whose range was scanned but passed zero rows
// reports MIN/MAX as F64(0) (the engines' zero-row convention), which must
// not participate in the merge — otherwise a spurious 0 wins against
// all-positive or all-negative minima.
func (m *aggMerge) fold(v table.Value, rows int64) {
	switch m.kind {
	case expr.Count:
		m.isInt = true
		m.sumI += v.Int
	case expr.Sum:
		if v.Type == geometry.Float64 {
			m.sumF += v.Float
		} else {
			m.isInt = true
			m.sumI += v.Int
		}
	case expr.Min:
		if rows == 0 {
			return
		}
		if !m.any || v.Compare(m.minV) < 0 {
			m.minV = v
		}
	case expr.Max:
		if rows == 0 {
			return
		}
		if !m.any || v.Compare(m.maxV) > 0 {
			m.maxV = v
		}
	}
	m.any = true
}

func (m *aggMerge) result() table.Value {
	switch m.kind {
	case expr.Count:
		return table.I64(m.sumI)
	case expr.Sum:
		if m.isInt {
			return table.I64(m.sumI)
		}
		return table.F64(m.sumF)
	case expr.Min:
		if !m.any {
			return table.F64(0) // zero-row convention, matches single-node MIN
		}
		return m.minV
	case expr.Max:
		if !m.any {
			return table.F64(0) // zero-row convention, matches single-node MAX
		}
		return m.maxV
	default:
		return table.Value{}
	}
}
