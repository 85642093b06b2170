package main

import (
	"bytes"
	"context"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"rfabric"
)

// oneRound builds w's database and oracle for seed and runs one round of
// its sequence untraced.
func oneRound(t *testing.T, w *workload, seed int64) ([]op, *passStats) {
	t.Helper()
	seq, err := w.gen(newRand(seed), seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, x := range seq {
		if x.write() {
			writes++
		}
	}
	db, err := w.setup(seed, writes)
	if err != nil {
		t.Fatal(err)
	}
	odb, err := w.oracle(seed, writes)
	if err != nil {
		t.Fatal(err)
	}
	p := runPass(db, w, seq, newOracle(odb, seq), nil, nil)
	if p.failed != 0 {
		t.Fatalf("%s: %d failed ops, first: %v", w.name, p.failed, p.firstErr)
	}
	return seq, p
}

func TestOracleCatchesCorruptedResults(t *testing.T) {
	db, err := tpchDB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	odb, err := tpchDB(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	orc := newOracle(odb, nil)
	corrupt := map[string]func(r *rfabric.Result){
		"projection checksum": func(r *rfabric.Result) { r.Checksum ^= 1 },
		"q1 group aggregate": func(r *rfabric.Result) {
			r.Groups[0].Aggs[0] = rfabric.F64(r.Groups[0].Aggs[0].Float * (1 + 1e-6))
		},
		"q6 rows passed": func(r *rfabric.Result) { r.RowsPassed++ },
	}
	for i, name := range []string{"projection checksum", "q1 group aggregate", "q6 rows passed"} {
		x := op{sql: scanSQL[i]}
		res, err := db.Query(x.sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := orc.check(x, res); err != nil {
			t.Fatalf("%s: correct result rejected: %v", name, err)
		}
		corrupt[name](res)
		if err := orc.check(x, res); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
}

func TestFailuresCount(t *testing.T) {
	w := workloads["htap"]
	seq, err := w.gen(newRand(1), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Room for one insert fewer than the sequence makes: the last insert is
	// refused at capacity and must count as failed.
	writes := 0
	for _, x := range seq {
		if x.write() {
			writes++
		}
	}
	db, err := w.setup(1, writes-1)
	if err != nil {
		t.Fatal(err)
	}
	odb, err := w.oracle(1, writes)
	if err != nil {
		t.Fatal(err)
	}
	if p := runPass(db, w, seq, newOracle(odb, seq), nil, nil); p.failed != 1 {
		t.Errorf("failed = %d, want 1 (the insert refused at capacity)", p.failed)
	}
}

func TestSameSeedRepeatsCounts(t *testing.T) {
	for _, name := range []string{"scan", "htap"} {
		w := workloads[name]
		_, a := oneRound(t, w, 5)
		_, b := oneRound(t, w, 5)
		if a.cycles != b.cycles || a.bytesToCPU != b.bytesToCPU || a.bytesFromDRAM != b.bytesFromDRAM {
			t.Errorf("%s: modeled counts differ across runs with one seed: %d/%d vs %d/%d",
				name, a.cycles, a.bytesToCPU, b.cycles, b.bytesToCPU)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	w := workloads["htap"]
	a, err := w.gen(newRand(1), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.gen(newRand(2), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 generate the same htap sequence")
	}
	_, p1 := oneRound(t, workloads["scan"], 1)
	_, p2 := oneRound(t, workloads["scan"], 2)
	if p1.cycles == p2.cycles {
		t.Error("seeds 1 and 2 give the same modeled cycles: the data did not change")
	}
}

func TestTailIndex(t *testing.T) {
	for _, c := range []struct{ n, want int }{{1, 0}, {100, 89}, {1000, 989}, {2000, 1979}} {
		if got := tailIndex(c.n); got != c.want {
			t.Errorf("tailIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	d := []time.Duration{5, 1, 4, 2, 3}
	if m := median(d); m != 3 {
		t.Errorf("median = %d, want 3", m)
	}
}

func TestWindowRates(t *testing.T) {
	r, w := op{sql: "q"}, op{row: []rfabric.Value{rfabric.I64(1)}}
	seq := []op{r, w, r, w, r, r, r}
	lat := []time.Duration{
		300 * time.Millisecond, 700 * time.Millisecond, // 1 read in 1 s
		100 * time.Millisecond, 150 * time.Millisecond, // 1 read in 0.25 s
		200 * time.Millisecond, 300 * time.Millisecond, // 2 reads in 0.5 s
		time.Second, // partial window, left out
	}
	got := windowRates(seq, lat, 2)
	if want := []float64{1, 4, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowRates = %v, want %v", got, want)
	}
	if m := medianFloat([]float64{9, 1, 4}); m != 4 {
		t.Errorf("medianFloat = %v, want 4", m)
	}
}

func TestHostBucket(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "rfabric/internal/cache.(*Hierarchy).Load", "rfabric.(*DB).Query"}, "cache"},
		{[]string{"rfabric/internal/vec.filterI64", "rfabric/internal/engine.run"}, "vec"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "rfabric/internal/engine.newGroup"}, "runtime_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc"}, "runtime_gc"},
		{[]string{"rfabric.(*DB).Insert"}, "db"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	} {
		if got := hostBucket(c.stack); got != c.want {
			t.Errorf("hostBucket(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func spin(d time.Duration) int {
	x := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x += i ^ x>>3
		}
	}
	return x
}

func TestParseCPUProfileKeepsLabels(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "bench"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.Do(context.Background(), pprof.Labels("phase", "system"), func(context.Context) { spin(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byPhase := map[string]int64{}
	for _, s := range samples {
		byPhase[s.labels["phase"]] += s.nanos
	}
	if byPhase["bench"] == 0 || byPhase["system"] == 0 {
		t.Fatalf("CPU time by phase label = %v, want both phases sampled", byPhase)
	}
	shares, total := hostShares(samples)
	if total == 0 || total >= byPhase["bench"]+byPhase["system"]+byPhase[""] {
		t.Errorf("hostShares counted %d ns, want the non-bench samples only", total)
	}
	if shares["other"] < 50 {
		t.Errorf("the spin loop is outside rfabric, want it mostly in other: %v", shares)
	}
}
