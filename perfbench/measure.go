package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
)

// phase is the machine cost of one timed read phase: wall time, process
// CPU (user + system, every goroutine of the process, servers
// included), heap allocations and GC activity, the reads it served with
// their latencies, and the share of the machine's CPU the hypervisor
// stole meanwhile.
type phase struct {
	lat     []time.Duration
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
	pauseNs uint64
	steal   float64
}

// write is one timed write op.
type write struct {
	wall  time.Duration
	steal float64
}

// phaseMeter records the timed phases of a run. Each starts from a
// forced GC, so every phase begins from the same heap state whatever
// the previous one left behind.
type phaseMeter struct {
	phases []phase
	writes []write

	t0     time.Time
	cpu0   time.Duration
	ms0    runtime.MemStats
	steal0 hostTicks
}

// Outside load: on a virtual machine the host steals CPU, in slices of
// several milliseconds spread through every second, at a share that
// drifts between about 1% and a third over minutes, and every timing
// of a phase moves with it. The steal during each phase and write is
// recorded, and one that saw more than stealLimit stolen is left out of
// the timing medians as long as at least half of the run's are clean.
const stealLimit = 0.03

// hostTicks is the machine-wide CPU time from /proc/stat's first line,
// in clock ticks: the total and the part stolen by the hypervisor. Both
// read 0 where the file is missing, so nothing counts as stolen.
type hostTicks struct{ total, steal uint64 }

func readHostTicks() hostTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var t hostTicks
	for i := 1; i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
	}
	t.steal, _ = strconv.ParseUint(f[8], 10, 64)
	return t
}

// stolenSince is the share of the machine's CPU stolen since t0.
func stolenSince(t0 hostTicks) float64 {
	t := readHostTicks()
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// begin forces a GC, snapshots the counters and starts the clock.
func (m *phaseMeter) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = processCPU()
	m.steal0 = readHostTicks()
	m.t0 = time.Now()
}

// end stops the clock and records the phase with the latencies of the
// reads it served.
func (m *phaseMeter) end(lat []time.Duration) {
	p := phase{lat: lat, wall: time.Since(m.t0), cpu: processCPU() - m.cpu0, steal: stolenSince(m.steal0)}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - m.ms0.Mallocs
	p.bytes = ms.TotalAlloc - m.ms0.TotalAlloc
	p.numGC = ms.NumGC - m.ms0.NumGC
	p.pauseNs = ms.PauseTotalNs - m.ms0.PauseTotalNs
	m.phases = append(m.phases, p)
}

// write times fn as one write op, from the same starting state as a read
// phase: after a forced GC.
func (m *phaseMeter) write(fn func() error) error {
	runtime.GC()
	t0 := readHostTicks()
	start := time.Now()
	err := fn()
	m.writes = append(m.writes, write{wall: time.Since(start), steal: stolenSince(t0)})
	return err
}

// timedPhases returns the phases the timing medians use: those with at
// most stealLimit stolen when they are at least half of the run, else
// all of them.
func (m *phaseMeter) timedPhases() []phase {
	var clean []phase
	for _, p := range m.phases {
		if p.steal <= stealLimit {
			clean = append(clean, p)
		}
	}
	if 2*len(clean) >= len(m.phases) {
		return clean
	}
	return m.phases
}

// timedWrites is timedPhases for write ops.
func (m *phaseMeter) timedWrites() []write {
	var clean []write
	for _, w := range m.writes {
		if w.steal <= stealLimit {
			clean = append(clean, w)
		}
	}
	if 2*len(clean) >= len(m.writes) {
		return clean
	}
	return m.writes
}

// perRead is the median over phases of f(phase) per read served.
func perRead(phases []phase, f func(p phase) float64) float64 {
	var xs []float64
	for _, p := range phases {
		if len(p.lat) > 0 {
			xs = append(xs, f(p)/float64(len(p.lat)))
		}
	}
	return median(xs)
}

// progress logs the last read phase and write to standard error, so a
// run's drift can be read unit by unit.
func (m *phaseMeter) progress(unit int) {
	p, w := m.phases[len(m.phases)-1], m.writes[len(m.writes)-1]
	ms := durationsMs(p.lat)
	fmt.Fprintf(os.Stderr, "unit %3d: %5d reads  p50 %8.4f p99 %8.4f ms  %9.1f reads/s  write %8.2f ms  stolen %4.1f%% %4.1f%%\n",
		unit, len(p.lat), quantile(ms, 0.5), quantile(ms, 0.99), float64(len(p.lat))/p.wall.Seconds(),
		float64(w.wall)/float64(time.Millisecond), 100*p.steal, 100*w.steal)
}

// processCPU is the user + system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a GC and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the q-quantile of xs by nearest rank (the smallest
// value with at least q of the samples at or below it). xs is sorted in
// place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// durationsMs converts latencies to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runStats is what every workload hands back: the read and write op
// latencies of the timed phases, the machine cost of the read phases,
// and the op tally.
type runStats struct {
	reads    []time.Duration
	meter    phaseMeter
	failed   int
	firstErr error

	// Layer counters, deltas over the timed phases.
	cache      hiddendb.CacheStats // the handler's backend
	shardCache hiddendb.CacheStats // summed over router shards
	retries    uint64              // client retries
	rounds     []roundInfo         // estimator rounds
	meanRelErr float64             // COUNT(*) estimate against the truth
	meanRelSE  float64             // the estimator's own standard error, relative
	keyOf      map[uint64]string   // read op → query key, traced runs
	heapMB     float64             // live heap at the end of the run
}

// endToEnd reduces a run to the end-to-end metrics every workload
// reports; setupS is measured by the caller. The median latency, rates
// and costs are medians over the run's timed read phases. Allocation
// counts and bytes do not depend on the machine's speed and use every
// phase.
func (s *runStats) endToEnd(setupS float64) map[string]metric {
	timed := s.meter.timedPhases()
	var p50s, writes []float64
	for _, p := range timed {
		p50s = append(p50s, quantile(durationsMs(p.lat), 0.5))
	}
	for _, w := range s.meter.timedWrites() {
		writes = append(writes, float64(w.wall)/float64(time.Millisecond))
	}
	all := s.meter.phases
	return map[string]metric{
		"op_p50_ms":       {median(p50s), "ms"},
		"ops_per_s":       {1 / perRead(timed, func(p phase) float64 { return p.wall.Seconds() }), "1/s"},
		"write_p50_ms":    {quantile(writes, 0.50), "ms"},
		"cpu_us_per_op":   {perRead(timed, func(p phase) float64 { return float64(p.cpu) / float64(time.Microsecond) }), "us"},
		"allocs_per_op":   {perRead(all, func(p phase) float64 { return float64(p.mallocs) }), "count"},
		"alloc_kb_per_op": {perRead(all, func(p phase) float64 { return float64(p.bytes) / 1024 }), "KiB"},
		"heap_mb":         {s.heapMB, "MiB"},
		"setup_s":         {setupS, "s"},
	}
}

// p99 is the 99th percentile of read latency over the run's timed read
// phases pooled, so that at least ten reads lie beyond it, with the
// number of reads it is taken over. It is not an end-to-end metric:
// on a virtual machine whose host steals CPU in slices of several
// milliseconds, a read hit by one slice lands in the top percent, so
// the p99 reads the host's load more than the program (see README.md).
func (s *runStats) p99() (float64, int) {
	var lat []float64
	for _, p := range s.meter.timedPhases() {
		lat = append(lat, durationsMs(p.lat)...)
	}
	return quantile(lat, 0.99), len(lat)
}
