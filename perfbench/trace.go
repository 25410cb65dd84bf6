package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/obs"
	"github.com/dynagg/dynagg/webiface"
)

// Span names, one per layer boundary the traced run times. The program
// is not instrumented: every span comes from a wrapper in this package
// around a public call.
const (
	spanRound        = "tracking.round"         // tracking.Service.StepOnce
	spanClientSearch = "webiface.client.search" // webiface.Session.Search
	spanRoundTrip    = "net.roundtrip"          // client RoundTripper: request write to response headers
	spanHandler      = "webiface.handler"       // webiface.Handler.ServeHTTP
	spanLookup       = "hiddendb.lookup"        // Backend.LookupAnswer
	spanSearchAnswer = "hiddendb.search_answer" // Backend.SearchAnswer
	spanWrite        = "write"                  // one write round
	spanInsert       = "hiddendb.insert"        // workload.Env.InsertFromPool
	spanDelete       = "hiddendb.delete"        // workload.Env.DeleteFraction
	spanRouterServe  = "router.serve"           // router.Router.ServeHTTP
	spanShardRT      = "router.shard_roundtrip" // router's shard transport
	spanShardHandler = "router.shard.handler"   // router.ShardAdmin.ServeHTTP
	spanShardLookup  = "router.shard.lookup"    // shard Backend.LookupAnswer
	spanShardSearch  = "router.shard.search"    // shard Backend.SearchAnswer
	spanHandshake    = "router.handshake"       // router.Router.Handshake
	noShard          = -1
	opHeader         = obs.TraceHeader
)

// span is one timed call at a layer boundary. Spans that see an HTTP
// request carry the op ID the client stamped on it; backend spans see
// only a query key and are linked to their handler span afterwards by
// key and time containment.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    string `json:"key,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
	First  bool   `json:"first_after_write,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are linked and written out once,
// after the timed phases.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span.
func (tr *tracer) add(s span) {
	tr.mu.Lock()
	s.ID = len(tr.spans)
	s.Parent = -1
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// timed runs fn inside a span.
func (tr *tracer) timed(op uint64, name string, fn func() error) error {
	start := time.Since(tr.t0)
	err := fn()
	tr.add(span{Op: op, Name: name, Shard: noShard, Start: int64(start), End: int64(time.Since(tr.t0))})
	return err
}

// now is the tracer clock: nanoseconds since the tracer started.
func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func opOf(r *http.Request) uint64 {
	op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
	return op
}

// tracedTransport times RoundTrip: request write to response headers.
// shardOf maps a request host to its shard (nil: not a shard hop). When
// stamp is set the request carries no op ID yet (webiface.Session does
// not forward one), so the transport stamps stamp()'s op on a copy.
type tracedTransport struct {
	base    http.RoundTripper
	tr      *tracer
	name    string
	shardOf map[string]int
	stamp   func() uint64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.stamp != nil {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.FormatUint(t.stamp(), 10))
	}
	shard := noShard
	if t.shardOf != nil {
		shard = t.shardOf[req.URL.Host]
	}
	start := t.tr.now()
	resp, err := t.base.RoundTrip(req)
	t.tr.add(span{Op: opOf(req), Name: t.name, Shard: shard, Start: start, End: t.tr.now()})
	return resp, err
}

// tracedHandler times ServeHTTP and counts the response bytes.
type tracedHandler struct {
	h     http.Handler
	tr    *tracer
	name  string
	shard int
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	start := t.tr.now()
	t.h.ServeHTTP(cw, r)
	t.tr.add(span{Op: opOf(r), Name: t.name, Shard: t.shard, Start: start, End: t.tr.now(), Bytes: cw.n})
}

// tracedBackend times the answer-cache probe (LookupAnswer) and the
// engine path (SearchAnswer: engine, singleflight and cache fill) of a
// webiface.Backend. After arm, the next SearchAnswer is marked as the
// first read after a write.
type tracedBackend struct {
	webiface.Backend
	tr           *tracer
	lookup, find string
	shard        int
	armed        atomic.Bool
}

func (b *tracedBackend) arm() { b.armed.Store(true) }

func (b *tracedBackend) LookupAnswer(key []byte) (*hiddendb.Answer, bool) {
	start := b.tr.now()
	a, ok := b.Backend.LookupAnswer(key)
	end := b.tr.now()
	b.tr.add(span{Name: b.lookup, Shard: b.shard, Start: start, End: end, Key: string(key)})
	return a, ok
}

func (b *tracedBackend) SearchAnswer(q hiddendb.Query) (*hiddendb.Answer, error) {
	start := b.tr.now()
	a, err := b.Backend.SearchAnswer(q)
	end := b.tr.now()
	b.tr.add(span{Name: b.find, Shard: b.shard, Start: start, End: end, Key: q.Key(),
		First: b.armed.Swap(false)})
	return a, err
}

// link gives every backend span the op and parent of the handler span
// that issued it (same shard, same query key, interval inside the
// handler's), and every other span the parent its layer implies.
// keyOf maps an op to its query key.
func (tr *tracer) link(keyOf map[uint64]string) {
	sp := tr.spans
	for i := range sp {
		if sp[i].Op != 0 && sp[i].Key != "" {
			keyOf[sp[i].Op] = sp[i].Key
		}
	}
	parentName := map[string]string{
		spanRoundTrip:    spanClientSearch,
		spanHandler:      spanRoundTrip,
		spanRouterServe:  spanRoundTrip,
		spanShardRT:      spanRouterServe,
		spanShardHandler: spanShardRT,
		spanInsert:       spanWrite,
		spanDelete:       spanWrite,
	}
	type slot struct {
		name  string
		shard int
		op    uint64
	}
	byOp := map[slot]int{}
	for i := range sp {
		if sp[i].Op != 0 {
			byOp[slot{sp[i].Name, sp[i].Shard, sp[i].Op}] = i
		}
	}
	for i := range sp {
		s := &sp[i]
		if s.Op == 0 {
			continue
		}
		pn, ok := parentName[s.Name]
		if !ok {
			continue
		}
		pshard := s.Shard
		if s.Name == spanShardRT {
			pshard = noShard
		}
		if p, ok := byOp[slot{pn, pshard, s.Op}]; ok {
			s.Parent = sp[p].ID
		}
	}

	// Backend spans: candidates are the handler spans of the same shard,
	// sorted by start, searched by the backend span's start.
	type hkey struct {
		shard int
		key   string
	}
	handlers := map[hkey][]int{}
	for i := range sp {
		if sp[i].Name == spanHandler || sp[i].Name == spanShardHandler {
			k := hkey{sp[i].Shard, keyOf[sp[i].Op]}
			handlers[k] = append(handlers[k], i)
		}
	}
	for _, hs := range handlers {
		sort.Slice(hs, func(a, b int) bool { return sp[hs[a]].Start < sp[hs[b]].Start })
	}
	for i := range sp {
		s := &sp[i]
		switch s.Name {
		case spanLookup, spanSearchAnswer, spanShardLookup, spanShardSearch:
		default:
			continue
		}
		hs := handlers[hkey{s.Shard, s.Key}]
		j := sort.Search(len(hs), func(j int) bool { return sp[hs[j]].Start > s.Start }) - 1
		for ; j >= 0; j-- {
			h := &sp[hs[j]]
			if h.End >= s.End {
				s.Op, s.Parent = h.Op, h.ID
				break
			}
		}
	}

	// Client searches and rounds are sequential: a search belongs to the
	// round whose interval holds it.
	var rounds []int
	for i := range sp {
		if sp[i].Name == spanRound {
			rounds = append(rounds, i)
		}
	}
	sort.Slice(rounds, func(a, b int) bool { return sp[rounds[a]].Start < sp[rounds[b]].Start })
	for i := range sp {
		s := &sp[i]
		if s.Name != spanClientSearch {
			continue
		}
		j := sort.Search(len(rounds), func(j int) bool { return sp[rounds[j]].Start > s.Start }) - 1
		if j >= 0 && sp[rounds[j]].End >= s.End {
			s.Parent = sp[rounds[j]].ID
		}
	}
}

// write stores every span as one JSON object per line.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
