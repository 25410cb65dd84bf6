// Command perfbench is the repository's benchmark. One invocation sets up
// one workload over the real serving stack on loopback HTTP, runs a
// fixed amount of work, checks every answer it samples against its own
// oracle, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced run) as the last line of standard
// output:
//
//	perfbench --workload serve-churn --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and the reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
)

// instance is one set-up, warmed-up system under test.
type instance interface {
	// run does units of fixed work (rounds or read segments, each
	// followed by one write) and checks the outputs.
	run(units int) (*runStats, error)
	close()
}

// workloadDef names a workload and sizes its work: unitsPerSecond units
// take about one second on the reference machine, so --seconds sets a
// fixed op count that takes about that long.
type workloadDef struct {
	name           string
	unitsPerSecond float64
	setup          func(seed int64, tr *tracer) (instance, error)
}

var workloads = []workloadDef{
	{"track-remote", 0.667, setupTrack},
	{"serve-churn", 0.533, setupServe},
	{"router-zipf", 0.4, setupRouter},
}

// setups is how many times an untraced run sets its workload up; setup_s
// is the median, and the last set-up is the one measured.
const setups = 3

// roundInfo is what the tracker reports after an estimator round.
type roundInfo struct {
	drills, queries, wasted int
}

func main() {
	name := flag.String("workload", "", "workload: track-remote, serve-churn or router-zipf")
	seed := flag.Int64("seed", 1, "seed of every input")
	seconds := flag.Int("seconds", 10, "sizes the fixed work of the run (about this many seconds of timed phases)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload track-remote|serve-churn|router-zipf, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	units := int(math.Max(1, math.Round(float64(*seconds)*def.unitsPerSecond)))
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(def, *seed, units)
	} else {
		res, err = plainRun(def, *seed, units)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %16.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if err != nil || !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUp builds one instance after a GC, timing it.
func setUp(def *workloadDef, seed int64, tr *tracer) (instance, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	inst, err := def.setup(seed, tr)
	d := time.Since(start)
	if err != nil {
		return nil, d, fmt.Errorf("set-up: %w", err)
	}
	return inst, d, nil
}

// measured sets up, runs and tears down once, returning the stats and the
// set-up time.
func measured(def *workloadDef, seed int64, units int, tr *tracer) (*runStats, time.Duration, error) {
	inst, setup, err := setUp(def, seed, tr)
	if err != nil {
		return nil, setup, err
	}
	defer inst.close()
	st, err := inst.run(units)
	if st != nil {
		st.heapMB = liveHeapMB()
	}
	return st, setup, err
}

func tally(st *runStats, err error) result {
	r := result{Correct: err == nil, Metrics: map[string]metric{}}
	if st != nil {
		r.Attempted = len(st.reads) + st.failed + len(st.meter.writes)
		r.Failed = st.failed
		fmt.Printf("%-34s %16d\n%-34s %16d\n", "read_ops", len(st.reads)+st.failed, "write_ops", len(st.meter.writes))
		fmt.Printf("%-34s %16d of %d\n", "phases_timed", len(st.meter.timedPhases()), len(st.meter.phases))
		if st.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: first failed op: %v\n", st.firstErr)
		}
	}
	return r
}

// plainRun is the untraced run: set up `setups` times (setup_s is the
// median), run the fixed work on the last set-up, report end to end.
func plainRun(def *workloadDef, seed int64, units int) (result, error) {
	var times []float64
	for i := 0; i < setups-1; i++ {
		inst, setup, err := setUp(def, seed, nil)
		if err != nil {
			return tally(nil, err), err
		}
		inst.close()
		times = append(times, setup.Seconds())
	}
	st, setup, err := measured(def, seed, units, nil)
	times = append(times, setup.Seconds())
	r := tally(st, err)
	if st == nil || len(st.reads) == 0 {
		return r, err
	}
	r.Metrics = st.endToEnd(median(times))
	p99, n := st.p99()
	fmt.Printf("%-34s %16.4f ms over %d reads (reported by --trace 1)\n", "op_p99_ms", p99, n)
	if st.meanRelErr > 0 {
		fmt.Printf("%-34s %16.4f\n%-34s %16.4f\n", "count_mean_rel_err", st.meanRelErr,
			"count_mean_rel_std_err", st.meanRelSE)
	}
	return r, err
}

// tracedRun measures the same fixed work twice on fresh set-ups, first
// untraced and then traced, and reports the per-layer metrics plus the
// tracing overhead on op_p50_ms.
func tracedRun(def *workloadDef, seed int64, units int) (result, error) {
	plain, _, err := measured(def, seed, units, nil)
	if err != nil {
		return tally(plain, err), err
	}
	tr := newTracer()
	st, _, err := measured(def, seed, units, tr)
	r := tally(st, err)
	if st == nil || len(st.reads) == 0 {
		return r, err
	}
	r.Attempted += len(plain.reads) + len(plain.meter.writes)
	tr.link(st.keyOf)
	r.Metrics = layerMetrics(tr, st)
	p50 := st.endToEnd(0)["op_p50_ms"].Value
	r.Metrics["trace.op_p50_ms"] = metric{p50, "ms"}
	r.Metrics["trace.overhead_p50_ms"] = metric{p50 - plain.endToEnd(0)["op_p50_ms"].Value, "ms"}
	p99, _ := plain.p99()
	r.Metrics["tail.op_p99_ms"] = metric{p99, "ms"}
	path := ".bench_build/spans-" + def.name + ".jsonl"
	if werr := tr.write(path); werr != nil && err == nil {
		err = werr
		r.Correct = false
	}
	fmt.Printf("%-34s %16d %s\n", "spans", len(tr.spans), path)
	return r, err
}

// traceCall runs fn, inside a span when traced.
func traceCall(tr *tracer, op uint64, name string, fn func() error) error {
	if tr == nil {
		return fn()
	}
	return tr.timed(op, name, fn)
}

// traceHandler wraps h in a timing handler when traced.
func traceHandler(h http.Handler, tr *tracer, name string, shard int) http.Handler {
	if tr == nil {
		return h
	}
	return &tracedHandler{h: h, tr: tr, name: name, shard: shard}
}

func addCache(a, b hiddendb.CacheStats) hiddendb.CacheStats {
	return hiddendb.CacheStats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Collapsed: a.Collapsed + b.Collapsed}
}

func cacheDelta(before, after hiddendb.CacheStats) hiddendb.CacheStats {
	return hiddendb.CacheStats{Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Collapsed: after.Collapsed - before.Collapsed}
}
