package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"rfabric"
	"rfabric/internal/tpch"
)

// lineitemRows sizes every workload's lineitem table: 64k rows of 136 B
// (8.3 MiB), larger than the simulated 1 MiB L2 and 2 MiB fabric buffer,
// so every cold scan moves its data through the DRAM model.
const lineitemRows = 64_000

// htap epoch shape: each shape is read htapReadsPerShape times in a shuffled
// order, then htapWritesPerEpoch rows are inserted.
const (
	htapReadsPerShape  = 6
	htapWritesPerEpoch = 32
)

// htapSlowCycles is the slow-log threshold rfbench -serve arms by default.
const htapSlowCycles = 10_000_000

// op is one client operation: a read of sql, or an insert of row.
type op struct {
	sql string
	row []rfabric.Value // non-nil: an insert into lineitem
	// epoch is the number of writes the sequence applied before this op;
	// the oracle answers a read at the same epoch.
	epoch int
}

func (o op) write() bool { return o.row != nil }

// newRand returns the sequence generator's source for seed, a stream apart
// from the data generators that take the same seed.
func newRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x5eed5eed))
}

// workload is one benchmark input: how to build the database under test
// and its oracle from a seed, and the operation sequence to drive.
type workload struct {
	name string
	// roundsPerSec sizes a run: -seconds × roundsPerSec rounds, calibrated
	// so that a run takes about -seconds on a 2-core Xeon.
	roundsPerSec float64
	// prepared routes reads through DB.Prepare and Prepared.Run.
	prepared bool
	// parallel marks the morsel executor, whose System clones the shared
	// System's hardware counters do not see.
	parallel bool
	// gen returns the operation sequence: rounds rounds drawn from rng.
	gen func(rng *rand.Rand, seed int64, rounds int) ([]op, error)
	// setup builds the database under test with room for writes inserts.
	setup func(seed int64, writes int) (*rfabric.DB, error)
	// oracle builds the reference database read on the ROW path: the same
	// data, no features attached.
	oracle func(seed int64, writes int) (*rfabric.DB, error)
}

func auditSQL(names ...string) []string {
	byName := map[string]string{}
	for _, st := range rfabric.DefaultAuditSet() {
		byName[st.Name] = st.SQL
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = byName[n]
	}
	return out
}

var (
	scanSQL = auditSQL("projection", "q1", "q6")
	joinSQL = auditSQL("q3-join", "q5-join", "q10-join")
)

// parWorkers is the morsel executor's worker count: two, or one on a
// single-CPU host. It is fixed rather than nproc so that modeled cycles,
// which depend on the worker count, compare across hosts.
func parWorkers() int {
	return min(2, runtime.NumCPU())
}

func tpchDB(seed int64, _ int) (*rfabric.DB, error) {
	return rfabric.NewTPCHDB(rfabric.DefaultConfig(), lineitemRows, seed)
}

var workloads = map[string]*workload{
	"scan": {
		name:         "scan",
		roundsPerSec: 14,
		gen:          shuffledRounds(scanSQL),
		setup:        tpchDB,
		oracle:       tpchDB,
	},
	"join": {
		name:         "join",
		roundsPerSec: 10,
		gen:          shuffledRounds(joinSQL),
		setup:        tpchDB,
		oracle:       tpchDB,
	},
	"par": {
		name:         "par",
		roundsPerSec: 8,
		parallel:     true,
		gen:          shuffledRounds(append(append([]string{}, scanSQL...), joinSQL...)),
		setup: func(seed int64, writes int) (*rfabric.DB, error) {
			db, err := tpchDB(seed, writes)
			if err != nil {
				return nil, err
			}
			db.SetParallel(rfabric.ParallelConfig{Workers: parWorkers()})
			return db, nil
		},
		oracle: tpchDB,
	},
	"htap": {
		name:         "htap",
		roundsPerSec: 4,
		prepared:     true,
		gen:          htapSequence,
		setup: func(seed int64, writes int) (*rfabric.DB, error) {
			return htapDB(seed, writes, true)
		},
		oracle: func(seed int64, writes int) (*rfabric.DB, error) {
			return htapDB(seed, writes, false)
		},
	},
}

// shuffledRounds returns a generator whose every round runs each statement
// once, in an order drawn from rng. Balanced rounds keep the statement mix,
// and so the per-query means, the same for every seed.
func shuffledRounds(stmts []string) func(*rand.Rand, int64, int) ([]op, error) {
	return func(rng *rand.Rand, _ int64, rounds int) ([]op, error) {
		seq := make([]op, 0, rounds*len(stmts))
		for r := 0; r < rounds; r++ {
			for _, i := range rng.Perm(len(stmts)) {
				seq = append(seq, op{sql: stmts[i]})
			}
		}
		return seq, nil
	}
}

// htapProjection is the audit set's projection with its ship-date cutoff
// as a parameter.
func htapProjection(day int32) string {
	return fmt.Sprintf(`SELECT l_orderkey, l_extendedprice, l_quantity FROM lineitem WHERE l_shipdate < DATE '%s'`,
		rfabric.FormatDate(day))
}

// htapSequence builds rounds epochs. Each epoch reads four shapes — two
// ship-date projections, Q1 and Q6 — htapReadsPerShape times each in a
// shuffled order, then inserts a batch of lineitem rows generated from the
// seed. The projection cutoffs sweep the ship-date range: one per stratum
// of 2×rounds equal strata, jittered within it and dealt to the epochs in
// a seeded order, so every seed reads the same mix of selectivities.
func htapSequence(rng *rand.Rand, seed int64, rounds int) ([]op, error) {
	writes := rounds * htapWritesPerEpoch
	pool, err := tpch.NewLineitem(writes, seed+101)
	if err != nil {
		return nil, fmt.Errorf("generate insert rows: %w", err)
	}
	ncols := pool.Schema().NumColumns()
	const dayLo, dayHi = 8036, 10561 // the generated l_shipdate range
	cutoffs := make([]int32, 2*rounds)
	for i, k := range rng.Perm(len(cutoffs)) {
		pos := (float64(k) + rng.Float64()) / float64(len(cutoffs))
		cutoffs[i] = int32(dayLo + pos*(dayHi-dayLo))
	}
	q1q6 := auditSQL("q1", "q6")
	var seq []op
	applied := 0
	for e := 0; e < rounds; e++ {
		shapes := []string{htapProjection(cutoffs[2*e]), htapProjection(cutoffs[2*e+1]), q1q6[0], q1q6[1]}
		var reads []string
		for _, s := range shapes {
			for k := 0; k < htapReadsPerShape; k++ {
				reads = append(reads, s)
			}
		}
		rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
		for _, s := range reads {
			seq = append(seq, op{sql: s, epoch: applied})
		}
		for k := 0; k < htapWritesPerEpoch; k++ {
			row := make([]rfabric.Value, ncols)
			for c := range row {
				if row[c], err = pool.Get(applied, c); err != nil {
					return nil, fmt.Errorf("read insert row %d: %w", applied, err)
				}
			}
			seq = append(seq, op{row: row, epoch: applied})
			applied++
		}
	}
	return seq, nil
}

// htapDB builds lineitem with headroom for the sequence's inserts. With
// features it carries the l_shipdate index, the group cache, offload and
// the registry, statement store, slow log and windows that rfbench -serve
// attaches; without, it is the plain table the oracle reads on ROW.
func htapDB(seed int64, writes int, features bool) (*rfabric.DB, error) {
	db, err := rfabric.Open(rfabric.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tbl, err := db.CreateTable("lineitem", tpch.LineitemSchema(), lineitemRows+writes)
	if err != nil {
		return nil, err
	}
	if err := tpch.Generate(tbl, lineitemRows, seed); err != nil {
		return nil, err
	}
	if !features {
		return db, nil
	}
	if _, err := db.CreateIndex("lineitem", "l_shipdate"); err != nil {
		return nil, err
	}
	db.SetGroupCache(rfabric.DefaultGroupCacheConfig())
	db.SetOffload(true)
	db.SetObserver(rfabric.NewRegistry())
	db.SetStatements(rfabric.NewStatStore())
	db.SetSlowThreshold(htapSlowCycles)
	db.SetWindows(rfabric.NewWindows(120))
	return db, nil
}
