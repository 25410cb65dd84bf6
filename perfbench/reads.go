package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
)

// readSegment is the fixed work between two write boundaries: the
// universe index of every read in issue order, and the positions whose
// response bodies are kept for the answer check.
type readSegment struct {
	reads  []int
	sample []int
}

// readResult is what a segment's clients observed.
type readResult struct {
	lat    []time.Duration
	bodies map[int][]byte // sampled position → response body
	failed int
	err    error // first failure, for the report
}

// runReads issues a segment from closed-loop clients. Client c issues
// positions c, c+n, c+2n, ... of the segment (n = len(gs)), each read
// only after its previous one returned. opBase+position+1 is each read's
// op ID; it is stamped on the request only when traced.
func runReads(gs []*getter, urls []string, seg readSegment, opBase uint64, traced bool) readResult {
	keep := make(map[int]bool, len(seg.sample))
	for _, p := range seg.sample {
		keep[p] = true
	}
	parts := make([]readResult, len(gs))
	var wg sync.WaitGroup
	for c := range gs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			g, part := gs[c], &parts[c]
			part.lat = make([]time.Duration, 0, len(seg.reads)/len(gs)+1)
			part.bodies = map[int][]byte{}
			for p := c; p < len(seg.reads); p += len(gs) {
				var op uint64
				if traced {
					op = opBase + uint64(p) + 1
				}
				status, d, err := g.get(urls[seg.reads[p]], op)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("GET %s: status %d: %s", urls[seg.reads[p]], status, g.buf.Bytes())
				}
				if err != nil {
					part.failed++
					if part.err == nil {
						part.err = err
					}
					continue
				}
				part.lat = append(part.lat, d)
				if keep[p] {
					part.bodies[p] = append([]byte(nil), g.buf.Bytes()...)
				}
			}
		}(c)
	}
	wg.Wait()
	out := readResult{bodies: map[int][]byte{}}
	for _, part := range parts {
		out.lat = append(out.lat, part.lat...)
		for p, b := range part.bodies {
			out.bodies[p] = b
		}
		out.failed += part.failed
		if out.err == nil {
			out.err = part.err
		}
	}
	return out
}

// warmUp issues the attribute warm-up on base and then the zipf reads
// of urls, failing on any error.
func warmUp(gs []*getter, base string, sch *schema.Schema, urls []string, zipf []int) error {
	if err := attributeReads(gs, base, sch); err != nil {
		return err
	}
	if res := runReads(gs, urls, readSegment{reads: zipf}, 0, false); res.failed > 0 {
		return fmt.Errorf("warm-up: %w", res.err)
	}
	return nil
}

// attributeReads issues one single-predicate read per attribute on base.
// On a fresh store they make the engine build every attribute's posting
// lists; right after the first write they make the store publish, which
// promotes those lists into the store index. Both are one-time costs no
// timed phase should pay.
func attributeReads(gs []*getter, base string, sch *schema.Schema) error {
	paths, seg := attributeWarmup(sch)
	for i, p := range paths {
		paths[i] = base + p
	}
	if res := runReads(gs, paths, seg, 0, false); res.failed > 0 {
		return fmt.Errorf("warm-up: %w", res.err)
	}
	return nil
}

// segments drives a read workload: fixed segments of Zipf reads from
// closed-loop clients, each followed by a fixed number of timed writes.
type segments struct {
	tr       *tracer
	gs       []*getter
	universe []readQuery
	urls     []string
	reads    *rand.Rand
	sample   *rand.Rand
	size     int // reads per segment
	checks   int // reads checked per segment
	writes   int // write ops after each segment
	op       uint64
}

func newSegments(tr *tracer, data *workload.Dataset, seed int64, size, checks, writes int) segments {
	return segments{
		tr:       tr,
		universe: buildUniverse(data, universeSize, rand.New(rand.NewSource(seed+seedUniverse))),
		reads:    rand.New(rand.NewSource(seed + seedReads)),
		sample:   rand.New(rand.NewSource(seed + seedSample)),
		size:     size,
		checks:   checks,
		writes:   writes,
	}
}

// target points the read universe at a server.
func (s *segments) target(base string) {
	for _, q := range s.universe {
		s.urls = append(s.urls, base+q.path)
	}
}

func (s *segments) next() readSegment {
	return readSegment{reads: zipfReads(s.reads, s.size), sample: sampleIndexes(s.sample, s.size, s.checks)}
}

// drive does units segments. Each is a timed read phase, the delta of
// cacheStats over it, a check of its sampled reads against reference(),
// and s.writes timed write(op) calls, each one write op. It returns the
// run's stats and the summed cache delta.
func (s *segments) drive(units int, cacheStats func() hiddendb.CacheStats, reference func() *checker,
	write func(op uint64) error) (*runStats, hiddendb.CacheStats, error) {

	st := &runStats{keyOf: map[uint64]string{}}
	var cache hiddendb.CacheStats
	for i := 0; i < units; i++ {
		seg := s.next()
		base := s.op
		s.op += uint64(len(seg.reads) + s.writes)
		cache0 := cacheStats()
		st.meter.begin()
		res := runReads(s.gs, s.urls, seg, base, s.tr != nil)
		st.meter.end(res.lat)
		cache = addCache(cache, cacheDelta(cache0, cacheStats()))
		st.reads = append(st.reads, res.lat...)
		st.failed += res.failed
		if res.err != nil && st.firstErr == nil {
			st.firstErr = res.err
		}
		if s.tr != nil {
			for p, qi := range seg.reads {
				st.keyOf[base+uint64(p)+1] = s.universe[qi].q.Key()
			}
		}
		if err := s.check(reference(), seg, res); err != nil {
			return st, cache, fmt.Errorf("segment %d: %w", i, err)
		}
		for j := 0; j < s.writes; j++ {
			op := base + uint64(len(seg.reads)+j) + 1
			if err := st.meter.write(func() error { return write(op) }); err != nil {
				return st, cache, fmt.Errorf("segment %d, write %d: %w", i, j, err)
			}
		}
		st.meter.progress(i)
	}
	return st, cache, nil
}

// check checks every kept body of a segment against the reference.
func (s *segments) check(ck *checker, seg readSegment, res readResult) error {
	for _, p := range seg.sample {
		body, ok := res.bodies[p]
		if !ok {
			continue // the read failed; counted in failed
		}
		if err := ck.checkWire(s.universe[seg.reads[p]].q, body); err != nil {
			return fmt.Errorf("read %d: %w", p, err)
		}
	}
	return nil
}

func (s *segments) closeClients() {
	for _, g := range s.gs {
		g.close()
	}
}
