package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/schema"
)

// checker is the benchmark's own answer oracle. It shares nothing with
// the engine's answering path — no posting lists, no top-k heaps, no
// cache, no codec: it filters a plain tuple list by naive predicate
// match, ranks the matches by the scorer in (score desc, ID asc) order,
// cuts the list at k and sets overflow when more than k tuples match.
type checker struct {
	k      int
	scorer hiddendb.Scorer
	tuples []*schema.Tuple
}

// newChecker snapshots the tuples fn enumerates (a store snapshot, or
// the union of a fleet's shards) as the reference for one version.
func newChecker(k int, scorer hiddendb.Scorer, forEach func(func(*schema.Tuple))) *checker {
	c := &checker{k: k, scorer: scorer}
	forEach(func(t *schema.Tuple) { c.tuples = append(c.tuples, t) })
	return c
}

// size is the number of reference tuples — the COUNT(*) truth.
func (c *checker) size() int { return len(c.tuples) }

// reference answers q naively.
func (c *checker) reference(q hiddendb.Query) hiddendb.Result {
	type scored struct {
		t *schema.Tuple
		s float64
	}
	var hits []scored
	for _, t := range c.tuples {
		ok := true
		for _, p := range q.Preds() {
			if t.Vals[p.Attr] != p.Val {
				ok = false
				break
			}
		}
		if ok {
			hits = append(hits, scored{t, c.scorer(t)})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].s != hits[j].s {
			return hits[i].s > hits[j].s
		}
		return hits[i].t.ID < hits[j].t.ID
	})
	res := hiddendb.Result{Overflow: len(hits) > c.k}
	if len(hits) > c.k {
		hits = hits[:c.k]
	}
	for _, h := range hits {
		res.Tuples = append(res.Tuples, h.t)
	}
	return res
}

// check compares an answer the program returned for q with the
// reference, tuple by tuple: IDs, searchable values and payloads in rank
// order, then the overflow flag.
func (c *checker) check(q hiddendb.Query, got hiddendb.Result) error {
	want := c.reference(q)
	if got.Overflow != want.Overflow {
		return fmt.Errorf("%s: overflow %v, want %v", q, got.Overflow, want.Overflow)
	}
	if len(got.Tuples) != len(want.Tuples) {
		return fmt.Errorf("%s: %d tuples, want %d", q, len(got.Tuples), len(want.Tuples))
	}
	for i, g := range got.Tuples {
		w := want.Tuples[i]
		if g.ID != w.ID {
			return fmt.Errorf("%s: rank %d is tuple %d, want %d", q, i, g.ID, w.ID)
		}
		if !slices.Equal(g.Vals, w.Vals) || !slices.Equal(g.Aux, w.Aux) {
			return fmt.Errorf("%s: tuple %d reads %v %v, want %v %v", q, g.ID, g.Vals, g.Aux, w.Vals, w.Aux)
		}
	}
	return nil
}

// checkWire decodes a /v1/search response body and checks it.
func (c *checker) checkWire(q hiddendb.Query, body []byte) error {
	var wr struct {
		K        int  `json:"k"`
		Overflow bool `json:"overflow"`
		Tuples   []struct {
			ID   uint64    `json:"id"`
			Vals []uint16  `json:"vals"`
			Aux  []float64 `json:"aux"`
		} `json:"tuples"`
	}
	if err := json.Unmarshal(body, &wr); err != nil {
		return fmt.Errorf("%s: response does not decode: %v", q, err)
	}
	if wr.K != c.k {
		return fmt.Errorf("%s: response k=%d, want %d", q, wr.K, c.k)
	}
	got := hiddendb.Result{Overflow: wr.Overflow}
	for _, t := range wr.Tuples {
		got.Tuples = append(got.Tuples, &schema.Tuple{ID: t.ID, Vals: t.Vals, Aux: t.Aux})
	}
	return c.check(q, got)
}
