package main

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
	"github.com/dynagg/dynagg/webiface"
)

// smallStore is a store small enough for unit tests, with queries that
// overflow k.
func smallStore(t *testing.T) (*workload.Env, []readQuery) {
	t.Helper()
	data := workload.AutosLikeN(7, 3000, 8)
	env, err := workload.NewEnv(data, 2500, 8)
	if err != nil {
		t.Fatal(err)
	}
	return env, buildUniverse(data, 64, rand.New(rand.NewSource(9)))
}

func TestCheckerAcceptsEngineAndWireAnswers(t *testing.T) {
	env, universe := smallStore(t)
	const k = 20
	iface := hiddendb.NewIface(env.Store, k, nil)
	h := webiface.NewHandler(iface)
	ck := newChecker(k, hiddendb.DefaultScorer, env.Store.Snapshot().ForEach)
	overflowed := 0
	for _, rq := range universe {
		res, err := iface.Search(rq.q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Overflow {
			overflowed++
		}
		if err := ck.check(rq.q, res); err != nil {
			t.Errorf("engine answer rejected: %v", err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", rq.path, nil))
		if err := ck.checkWire(rq.q, rec.Body.Bytes()); err != nil {
			t.Errorf("wire answer rejected: %v", err)
		}
	}
	if overflowed == 0 || overflowed == len(universe) {
		t.Fatalf("%d of %d queries overflow; the test needs both kinds", overflowed, len(universe))
	}
}

// tieScorer ranks by the first attribute only, so most ranks are ties
// broken by ID.
func tieScorer(t *schema.Tuple) float64 { return float64(t.Vals[0]) }

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	env, universe := smallStore(t)
	const k = 20
	iface := hiddendb.NewIface(env.Store, k, tieScorer)
	ck := newChecker(k, tieScorer, env.Store.Snapshot().ForEach)
	var q hiddendb.Query
	var good hiddendb.Result
	tie := -1
	for _, rq := range universe {
		res, _ := iface.Search(rq.q)
		if !res.Overflow {
			continue
		}
		for i := 0; i+1 < len(res.Tuples); i++ {
			if tieScorer(res.Tuples[i]) == tieScorer(res.Tuples[i+1]) {
				q, good, tie = rq.q, res, i
				break
			}
		}
		if tie >= 0 {
			break
		}
	}
	if tie < 0 {
		t.Fatal("no overflowing answer with a tie")
	}
	if err := ck.check(q, good); err != nil {
		t.Fatalf("engine answer rejected: %v", err)
	}
	clone := func() hiddendb.Result {
		r := hiddendb.Result{Overflow: good.Overflow, Tuples: append([]*schema.Tuple(nil), good.Tuples...)}
		return r
	}

	dropped := clone()
	dropped.Tuples = append(dropped.Tuples[:3], dropped.Tuples[4:]...)
	flipped := clone()
	flipped.Overflow = !flipped.Overflow
	swapped := clone()
	swapped.Tuples[tie], swapped.Tuples[tie+1] = swapped.Tuples[tie+1], swapped.Tuples[tie]
	wrong := clone()
	bad := wrong.Tuples[5].Clone(wrong.Tuples[5].ID)
	bad.Vals[3] = (bad.Vals[3] + 1) % uint16(env.Data.Schema.DomainSize(3))
	wrong.Tuples[5] = bad

	for name, r := range map[string]hiddendb.Result{
		"dropped tuple": dropped, "flipped overflow": flipped, "swapped tie": swapped, "wrong value": wrong,
	} {
		if err := ck.check(q, r); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestUniverseIsDistinctAndSeeded(t *testing.T) {
	data := workload.AutosLikeN(1, 2000, 38)
	u := buildUniverse(data, universeSize, rand.New(rand.NewSource(3)))
	again := buildUniverse(data, universeSize, rand.New(rand.NewSource(3)))
	seen := map[string]bool{}
	for i, rq := range u {
		if n := rq.q.Len(); n < 1 || n > 2 {
			t.Fatalf("query %s has %d predicates", rq.q, n)
		}
		if seen[rq.q.Key()] {
			t.Fatalf("query %s drawn twice", rq.q)
		}
		seen[rq.q.Key()] = true
		if again[i].path != rq.path {
			t.Fatalf("universe differs for one seed at %d: %s vs %s", i, rq.path, again[i].path)
		}
	}
	if len(seen) != universeSize {
		t.Fatalf("%d distinct queries, want %d", len(seen), universeSize)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 %v, want 990", got)
	}
}

func TestLinkAttributesBackendSpansByKeyAndTime(t *testing.T) {
	tr := newTracer()
	// Two overlapping requests for different keys, each with a cache
	// probe; the second misses and runs the engine.
	tr.add(span{Op: 1, Name: spanRoundTrip, Shard: noShard, Start: 0, End: 100})
	tr.add(span{Op: 2, Name: spanRoundTrip, Shard: noShard, Start: 5, End: 120})
	tr.add(span{Op: 1, Name: spanHandler, Shard: noShard, Start: 10, End: 50})
	tr.add(span{Op: 2, Name: spanHandler, Shard: noShard, Start: 12, End: 90})
	tr.add(span{Name: spanLookup, Shard: noShard, Start: 11, End: 13, Key: "a"})
	tr.add(span{Name: spanLookup, Shard: noShard, Start: 13, End: 14, Key: "b"})
	tr.add(span{Name: spanSearchAnswer, Shard: noShard, Start: 15, End: 80, Key: "b"})
	tr.link(map[uint64]string{1: "a", 2: "b"})
	want := map[int]struct {
		op     uint64
		parent int
	}{2: {1, 0}, 3: {2, 1}, 4: {1, 2}, 5: {2, 3}, 6: {2, 3}}
	for id, w := range want {
		s := tr.spans[id]
		if s.Op != w.op || s.Parent != w.parent {
			t.Errorf("span %d %s: op %d parent %d, want op %d parent %d", id, s.Name, s.Op, s.Parent, w.op, w.parent)
		}
	}
	m := layerMetrics(tr, &runStats{reads: make([]time.Duration, 2)})
	// Self times are 40-2 and 78-(1+65) ns; the nearest-rank median of
	// two is the lower.
	if got := m["webiface.handler.self_us"].Value; got != 0.012 {
		t.Errorf("handler self %v µs", got)
	}
}
