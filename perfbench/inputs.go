package main

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
)

// Inputs shared by every workload. The data is the paper's Yahoo! Autos
// shape at full size (workload.AutosLike: 188,917 tuples, 38 attributes)
// with its default round schedule: 170,000 tuples at start, and each
// write round inserts 300 pool tuples and deletes 0.1% of the store.
const (
	initialTuples  = 170000
	topK           = 250
	insertPerRound = 300
	deleteFrac     = 0.001

	// Reads draw with Zipf skew zipfS from a universe of universeSize
	// distinct 1–2-predicate queries.
	universeSize = 1024
	zipfS        = 1.2
)

// Every input derives from the run's --seed through a fixed offset, so
// one seed gives one dataset, one universe, one read sequence and one
// check sample whatever the timing.
const (
	seedData = iota
	seedEnv
	seedUniverse
	seedReads
	seedSample
	seedEstimator
)

// readQuery is one member of the read universe: the query and its GET
// path in the canonical where=attr:val form the handler parses directly.
type readQuery struct {
	q    hiddendb.Query
	path string
}

// buildUniverse draws n distinct conjunctive queries of one or two
// predicates on distinct attributes, values uniform within each domain.
// Distinctness is by construction: a draw whose canonical key was already
// drawn is rejected. The universe is ranked broadest first — by matches
// in every poolStride-th pool tuple, ties by key — so Zipf rank r reads
// the r-th broadest query: the hot queries are the broad browse-style
// ones whatever the seed, and the cost of a read mix does not hinge on
// whether the few hottest draws happen to be selective.
func buildUniverse(data *workload.Dataset, n int, rng *rand.Rand) []readQuery {
	sch := data.Schema
	m := sch.M()
	seen := make(map[string]bool, n)
	out := make([]readQuery, 0, n)
	for len(out) < n {
		a0 := rng.Intn(m)
		preds := []hiddendb.Pred{{Attr: a0, Val: uint16(rng.Intn(sch.DomainSize(a0)))}}
		if rng.Intn(2) == 1 {
			a1 := rng.Intn(m - 1)
			if a1 >= a0 {
				a1++
			}
			preds = append(preds, hiddendb.Pred{Attr: a1, Val: uint16(rng.Intn(sch.DomainSize(a1)))})
		}
		q := hiddendb.NewQuery(preds...)
		if seen[q.Key()] {
			continue
		}
		seen[q.Key()] = true
		out = append(out, readQuery{q: q, path: searchPath(q)})
	}
	matches := make([]int, len(out))
	for i := 0; i < len(data.Pool); i += poolStride {
		for j := range out {
			if out[j].q.Matches(data.Pool[i], false) {
				matches[j]++
			}
		}
	}
	idx := make([]int, len(out))
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool {
		if ma, mb := matches[idx[a]], matches[idx[b]]; ma != mb {
			return ma > mb
		}
		return out[idx[a]].q.Key() < out[idx[b]].q.Key()
	})
	ranked := make([]readQuery, len(out))
	for r, j := range idx {
		ranked[r] = out[j]
	}
	return ranked
}

// poolStride thins the pool for ranking the universe: every 16th tuple
// (11,808 of the Autos pool) ranks 1,024 queries in a few tens of ms.
const poolStride = 16

// searchPath renders q as a /v1/search GET path.
func searchPath(q hiddendb.Query) string {
	var b strings.Builder
	b.WriteString("/v1/search")
	for i, p := range q.Preds() {
		if i == 0 {
			b.WriteString("?where=")
		} else {
			b.WriteString("&where=")
		}
		b.WriteString(strconv.Itoa(p.Attr))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(int(p.Val)))
	}
	return b.String()
}

// attributeWarmup returns one single-predicate GET path per attribute
// and the segment that reads each once (see attributeReads).
func attributeWarmup(sch *schema.Schema) (paths []string, seg readSegment) {
	for a := 0; a < sch.M(); a++ {
		paths = append(paths, searchPath(hiddendb.NewQuery(hiddendb.Pred{Attr: a, Val: 0})))
		seg.reads = append(seg.reads, a)
	}
	return paths, seg
}

// churn applies one write round to env: insertPerRound pool inserts,
// then deleteFrac of the store deleted, in dynagg-serve -round's order.
func churn(tr *tracer, op uint64, env *workload.Env) error {
	if err := traceCall(tr, op, spanInsert, func() error { return env.InsertFromPool(insertPerRound) }); err != nil {
		return err
	}
	return traceCall(tr, op, spanDelete, func() error { return env.DeleteFraction(deleteFrac) })
}

// zipfReads draws n universe indexes with Zipf skew zipfS.
func zipfReads(rng *rand.Rand, n int) []int {
	z := rand.NewZipf(rng, zipfS, 1, universeSize-1)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// sampleIndexes picks c distinct indexes in [0, n) to check, in
// ascending order.
func sampleIndexes(rng *rand.Rand, n, c int) []int {
	if c > n {
		c = n
	}
	perm := rng.Perm(n)[:c]
	out := append([]int(nil), perm...)
	sort.Ints(out)
	return out
}
