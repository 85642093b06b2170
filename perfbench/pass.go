package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rfabric"
)

// floatEps is the relative tolerance for float aggregates: parallel and
// offloaded paths may sum in another order than the ROW oracle.
const floatEps = 1e-9

// oracle answers each read from a separate DB on the ROW path, built from
// the same seed and replaying the sequence's writes up to the read's epoch.
// It never touches the System under test, so modeled cycles stay what the
// workload produced.
type oracle struct {
	db      *rfabric.DB
	writes  [][]rfabric.Value // the sequence's inserts, in order
	applied int               // writes replayed so far
	memo    map[oracleKey]*rfabric.Result
}

type oracleKey struct {
	sql   string
	epoch int
}

func newOracle(db *rfabric.DB, seq []op) *oracle {
	o := &oracle{db: db, memo: map[oracleKey]*rfabric.Result{}}
	for _, x := range seq {
		if x.write() {
			o.writes = append(o.writes, x.row)
		}
	}
	return o
}

// expect returns the reference result of sql after epoch writes.
func (o *oracle) expect(sql string, epoch int) (*rfabric.Result, error) {
	k := oracleKey{sql, epoch}
	if r, ok := o.memo[k]; ok {
		return r, nil
	}
	for o.applied < epoch && o.applied < len(o.writes) {
		if err := o.db.Insert("lineitem", o.writes[o.applied]...); err != nil {
			return nil, fmt.Errorf("oracle insert %d: %w", o.applied, err)
		}
		o.applied++
	}
	if o.applied != epoch {
		return nil, fmt.Errorf("oracle is at epoch %d, read wants %d", o.applied, epoch)
	}
	r, err := o.db.QueryOn(rfabric.ROW, sql)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	o.memo[k] = r
	return r, nil
}

// check compares a read's result with the oracle's.
func (o *oracle) check(x op, got *rfabric.Result) error {
	want, err := o.expect(x.sql, x.epoch)
	if err != nil {
		return err
	}
	if err := got.EquivalentTo(want, floatEps); err != nil {
		return fmt.Errorf("wrong result for %q at epoch %d: %w", x.sql, x.epoch, err)
	}
	return nil
}

// allocMeter reads the runtime's cumulative allocation and GC counters.
// It uses ReadMemStats, which stops the world, because runtime/metrics
// counts small objects a span at a time between GCs.
type allocMeter struct{ ms runtime.MemStats }

func (m *allocMeter) read() (objects, bytes, gcs uint64) {
	runtime.ReadMemStats(&m.ms)
	return m.ms.Mallocs, m.ms.TotalAlloc, uint64(m.ms.NumGC)
}

// passStats is what one pass over the sequence measured.
type passStats struct {
	readLat, writeLat []time.Duration // per-op latency, in sequence order
	lat               []time.Duration // every op's latency, in sequence order
	busy              time.Duration   // sum of all op latencies
	failed            int
	firstErr          error

	allocs, allocBytes, gcCycles uint64 // summed over ops only

	// Modeled totals over the reads, from each Result's Breakdown.
	cycles, bytesToCPU, bytesFromDRAM uint64
	compute, memDemand, producer      uint64
	joinBuild, joinProbe              uint64 // traced passes only
	compile, execute, inserts         []time.Duration
}

func (p *passStats) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// runPass drives db through seq as one closed-loop client. Only the calls
// into db are timed and metered; the oracle check, and between(i) if
// non-nil, run between ops. With a non-nil log the pass is the traced one:
// each op records benchmark spans, reads run through QueryTraced and nest
// the program's span tree, and CPU profile samples taken inside db calls
// carry the label phase=system.
func runPass(db *rfabric.DB, w *workload, seq []op, orc *oracle, log *spanLog, between func(i int)) *passStats {
	p := &passStats{}
	meter := &allocMeter{}
	sysCtx := pprof.WithLabels(context.Background(), pprof.Labels("phase", "system"))
	benchCtx := pprof.WithLabels(context.Background(), pprof.Labels("phase", "bench"))
	for i, x := range seq {
		if between != nil {
			between(i)
		}
		var (
			res *rfabric.Result
			err error
			d   time.Duration
		)
		name := "read"
		if x.write() {
			name = "write"
		}
		root := log.begin(i, 0, name)
		a0, b0, g0 := meter.read()
		if log != nil {
			pprof.SetGoroutineLabels(sysCtx)
			res, d, err = tracedOp(db, w, x, i, root, log, p)
			pprof.SetGoroutineLabels(benchCtx)
		} else {
			res, d, err = plainOp(db, w, x)
		}
		a1, b1, g1 := meter.read()
		p.allocs += a1 - a0
		p.allocBytes += b1 - b0
		p.gcCycles += g1 - g0
		p.busy += d
		p.lat = append(p.lat, d)
		if x.write() {
			p.writeLat = append(p.writeLat, d)
		} else {
			p.readLat = append(p.readLat, d)
		}
		if err != nil || x.write() {
			if err != nil {
				p.fail(fmt.Errorf("op %d: %w", i, err))
			}
			log.end(root)
			continue
		}
		bd := res.Breakdown
		p.cycles += bd.TotalCycles
		p.bytesToCPU += bd.BytesToCPU
		p.bytesFromDRAM += bd.BytesFromDRAM
		p.compute += bd.ComputeCycles
		p.memDemand += bd.MemDemandCycles
		p.producer += bd.ProducerCycles
		sp := log.begin(i, root, "verify")
		if err := orc.check(x, res); err != nil {
			p.fail(fmt.Errorf("op %d: %w", i, err))
		}
		log.end(sp)
		log.end(root)
	}
	pprof.SetGoroutineLabels(context.Background())
	return p
}

// plainOp runs one op untraced and returns its latency.
func plainOp(db *rfabric.DB, w *workload, x op) (*rfabric.Result, time.Duration, error) {
	t0 := time.Now()
	if x.write() {
		err := db.Insert("lineitem", x.row...)
		return nil, time.Since(t0), err
	}
	if !w.prepared {
		res, err := db.Query(x.sql)
		return res, time.Since(t0), err
	}
	stmt, err := db.Prepare(x.sql)
	if err != nil {
		return nil, time.Since(t0), err
	}
	res, err := stmt.Run(rfabric.RM)
	return res, time.Since(t0), err
}

// tracedOp runs one op with benchmark spans around each call into db. A
// read's latency is its prepare and execute spans; the compile span (plan
// without execution, DB.ExplainPlan) is traced-pass-only extra work that
// measures the sql layer alone.
func tracedOp(db *rfabric.DB, w *workload, x op, i, root int, log *spanLog, p *passStats) (*rfabric.Result, time.Duration, error) {
	if x.write() {
		sp := log.begin(i, root, "db.insert")
		err := db.Insert("lineitem", x.row...)
		d := log.end(sp)
		p.inserts = append(p.inserts, d)
		return nil, d, err
	}
	sp := log.begin(i, root, "compile")
	_, err := db.ExplainPlan(x.sql)
	p.compile = append(p.compile, log.end(sp))
	if err != nil {
		return nil, 0, err
	}
	var d time.Duration
	if w.prepared {
		sp = log.begin(i, root, "prepare")
		_, err = db.Prepare(x.sql)
		d += log.end(sp)
		if err != nil {
			return nil, d, err
		}
	}
	sp = log.begin(i, root, "execute")
	res, tr, err := db.QueryTraced(x.sql)
	ed := log.end(sp)
	p.execute = append(p.execute, ed)
	d += ed
	if err != nil {
		return nil, d, err
	}
	log.nest(sp, tr)
	build, probe := joinCycles(tr.Root)
	p.joinBuild += build
	p.joinProbe += probe
	return res, d, nil
}

// joinCycles sums the modeled cycles attributed to the program's join
// build[k] and probe spans, skipping detail subtrees (parallel morsels,
// whose cycles overlap the attributed time).
func joinCycles(s *rfabric.Span) (build, probe uint64) {
	if s == nil || s.Detail {
		return 0, 0
	}
	switch {
	case s.Name == "probe":
		return 0, s.AttributedCycles()
	case strings.HasPrefix(s.Name, "build["):
		return s.AttributedCycles(), 0
	}
	for _, c := range s.Children {
		b, pr := joinCycles(c)
		build += b
		probe += pr
	}
	return build, probe
}
