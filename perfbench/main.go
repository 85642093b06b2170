// Command perfbench is the repository's end-to-end benchmark. It builds one
// workload's TPC-H database from a seed, drives it from one closed-loop
// client through the public rfabric API, checks every read against a ROW
// oracle on a separate database, and prints its metrics as one JSON object
// on the last line of standard output.
//
//	perfbench -workload scan -seed 1 -seconds 10 -trace 0
//
// A run is a fixed operation sequence generated from the seed; -seconds
// sizes it (see workload.roundsPerSec), so modeled counts repeat exactly
// for one seed and only host timings vary. -trace 0 reports the end-to-end
// metrics of an untraced pass; -trace 1 adds a traced pass on a fresh
// database and reports the per-layer metrics. README.md lists them all.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// setupBuilds is how many times an untraced run builds its database and
// times the build; setup_s is the median. The first build runs before the
// timed pass, the others are spread evenly through it, between ops and
// outside their timing, so that setup_s samples the host's speed over the
// whole run, as queries_per_s does; on a shared host it drifts over
// seconds.
const setupBuilds = 16

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "scan", "workload: scan, join, par or htap")
	seed := fs.Int64("seed", 1, "seed of the data and the operation sequence")
	seconds := fs.Int("seconds", 10, "run length the sequence is sized for")
	trace := fs.Int("trace", 0, "1: add a traced pass and report per-layer metrics")
	out := fs.String("out", "", "directory for the traced pass's span file (none if empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}

	rounds := int(math.Ceil(float64(*seconds) * w.roundsPerSec))
	seq, err := w.gen(newRand(*seed), *seed, rounds)
	if err != nil {
		return err
	}
	writes := 0
	for _, x := range seq {
		if x.write() {
			writes++
		}
	}

	first, err := timeSetup(w, *seed, writes, seq[:len(seq)/rounds])
	if err != nil {
		return err
	}
	setup := []time.Duration{first}
	var between func(i int)
	var buildErr error
	if *trace == 0 {
		k := 1
		between = func(i int) {
			if k == setupBuilds || i != k*len(seq)/setupBuilds {
				return
			}
			k++
			d, err := timeSetup(w, *seed, writes, nil)
			setup = append(setup, d)
			buildErr = cmp.Or(buildErr, err)
		}
	}
	db, err := w.setup(*seed, writes)
	if err != nil {
		return err
	}
	odb, err := w.oracle(*seed, writes)
	if err != nil {
		return err
	}
	orc := newOracle(odb, seq)

	plain := runPass(db, w, seq, orc, nil, between)
	if buildErr != nil {
		return buildErr
	}
	rep := report{Attempted: len(seq), Failed: plain.failed}
	passes := []*passStats{plain}
	if *trace == 0 {
		window := len(seq) / rounds * windowRounds(w)
		rep.Metrics = endToEnd(plain, seq, window, setup, db)
	} else {
		traced, metrics, err := tracedRun(w, *seed, writes, seq, orc, plain, *out)
		if err != nil {
			return err
		}
		rep.Attempted += len(seq)
		rep.Failed += traced.failed
		rep.Metrics = metrics
		passes = append(passes, traced)
	}
	rep.Correct = rep.Failed == 0
	for _, p := range passes {
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failure:", p.firstErr)
		}
	}
	n, pct := len(plain.readLat), tailPercentile(len(plain.readLat))
	fmt.Printf("info %s: %d ops (%d reads, %d writes) in %d rounds, %.3f s of client time (%.3f reads/s over the whole pass), %d timed builds; query_p99_ms is p%.2f of %d samples\n",
		w.name, len(seq), n, len(plain.writeLat), rounds, plain.busy.Seconds(), float64(n)/plain.busy.Seconds(), len(setup), pct, n)
	enc, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	return nil
}

// tracedRun replays seq traced on a fresh database, with the CPU profiler
// on and the counters read around the pass, and returns the pass and the
// per-layer metrics, printing an n/a line for each that does not apply.
// With out set, it writes the spans there.
func tracedRun(w *workload, seed int64, writes int, seq []op, orc *oracle, plain *passStats, out string) (*passStats, map[string]metric, error) {
	db, err := w.setup(seed, writes)
	if err != nil {
		return nil, nil, err
	}
	var prof bytes.Buffer
	log := newSpanLog(len(seq) * 5)
	c0 := takeCounters(db)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	traced := runPass(db, w, seq, orc, log, nil)
	pprof.StopCPUProfile()
	c1 := takeCounters(db)
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	metrics, notes := perLayer(w, plain, traced, c1.delta(c0), samples)
	for _, n := range notes {
		fmt.Println("n/a", n)
	}
	if out != "" {
		path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
		if err := log.write(path); err != nil {
			return nil, nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	return traced, metrics, nil
}

// timeSetup builds the database once and returns the build time. It then
// runs warmup on it, the sequence's first round before the timed pass, so
// that pass does not pay the process's first-use costs. The collections
// around the build keep its garbage out of the timed ops.
func timeSetup(w *workload, seed int64, writes int, warmup []op) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	db, err := w.setup(seed, writes)
	d := time.Since(t0)
	if err != nil {
		return d, fmt.Errorf("setup: %w", err)
	}
	for _, x := range warmup {
		if _, _, err := plainOp(db, w, x); err != nil {
			return d, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	return d, nil
}

// windowSeconds is the client time a throughput window spans on the host
// the rates were calibrated on.
const windowSeconds = 0.5

// windowRounds is how many whole rounds of w make one throughput window.
func windowRounds(w *workload) int {
	return max(1, int(math.Round(w.roundsPerSec*windowSeconds)))
}

// windowRates splits the pass over seq into consecutive windows of window
// ops, whole rounds each so every window runs the same mix, and returns
// each window's reads over its client time. A partial last window is left
// out.
func windowRates(seq []op, lat []time.Duration, window int) []float64 {
	var rates []float64
	for lo := 0; lo+window <= len(lat); lo += window {
		var busy time.Duration
		reads := 0
		for i := lo; i < lo+window; i++ {
			busy += lat[i]
			if !seq[i].write() {
				reads++
			}
		}
		rates = append(rates, float64(reads)/busy.Seconds())
	}
	return rates
}

// endToEnd turns an untraced pass over seq into the end-to-end metrics.
// queries_per_s is the median of the pass's window rates (see windowRates),
// which a slow stretch of the host shorter than half the run moves far
// less than it moves a mean.
// The oracle is unreachable by now, so live_heap_mb counts the system's
// heap.
func endToEnd(p *passStats, seq []op, window int, setup []time.Duration, db any) map[string]metric {
	reads := float64(len(p.readLat))
	ops := float64(len(p.readLat) + len(p.writeLat))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(db)
	return map[string]metric{
		"setup_s":                  {seconds(median(setup)), "s"},
		"query_p50_ms":             {millis(median(p.readLat)), "ms"},
		"queries_per_s":            {medianFloat(windowRates(seq, p.lat, window)), "1/s"},
		"modeled_cycles_per_query": {float64(p.cycles) / reads, "cycles"},
		"bytes_to_cpu_per_query":   {float64(p.bytesToCPU) / reads, "B"},
		"allocs_per_op":            {float64(p.allocs) / ops, "count"},
		"alloc_bytes_per_op":       {float64(p.allocBytes) / ops, "B"},
		"live_heap_mb":             {float64(ms.HeapAlloc) / (1 << 20), "MiB"},
	}
}

// median returns the middle sample by nearest rank (the upper middle of an
// even count), 0 for none.
func median(d []time.Duration) time.Duration {
	return rank(d, len(d)/2)
}

// medianFloat returns the middle value by nearest rank, as median does.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// tailPercentile is the percentile query_p99_ms reports for n samples: 99,
// or lower when fewer than ten samples would lie beyond the 99th.
func tailPercentile(n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(tailIndex(n)+1) / float64(n)
}

func tailIndex(n int) int {
	return max(0, min(int(math.Ceil(0.99*float64(n)))-1, n-11))
}

// tail returns the highest percentile sample with at least ten samples
// beyond it.
func tail(d []time.Duration) time.Duration {
	return rank(d, tailIndex(len(d)))
}

// rank returns the i-th smallest sample.
func rank(d []time.Duration, i int) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[i]
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e6 }
func micros(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }
