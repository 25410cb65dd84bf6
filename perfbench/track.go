package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/dynagg/dynagg/internal/agg"
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/tracking"
	"github.com/dynagg/dynagg/internal/workload"
	"github.com/dynagg/dynagg/webiface"
)

// track-remote: tracking.Service runs RS rounds with dynagg-track -remote
// defaults (COUNT(*), G = 500, MaxDrills 2000, sequential walks, no
// checkpoint) through webiface.Client over loopback to one in-process
// webiface.Handler whose per-key budget is G, reset every round. One
// write round is applied between estimator rounds.
const (
	trackBudget    = 500
	trackMaxDrills = 2000
	trackTimeout   = 15 * time.Second
	trackChecks    = 20 // estimator queries checked per round

	// maxMeanRelErr bounds the run's mean relative error of the COUNT(*)
	// estimate. RS is unbiased; over a run its own relative standard
	// error averages 3-7% here and the mean error 1-10%, so the bound
	// sits at about five standard errors: only a broken estimator, or
	// answers that lie about the data, cross it.
	maxMeanRelErr = 0.25
)

type trackRemote struct {
	tr      *tracer
	env     *workload.Env
	iface   *hiddendb.Iface
	handler *webiface.Handler
	backend *tracedBackend
	srv     *server
	client  *webiface.Client
	idle    *http.Transport
	svc     *tracking.Service
	sample  *rand.Rand
	sess    *benchSession // the current round's session
	op      atomic.Uint64 // last op ID handed out
	curOp   atomic.Uint64 // op of the estimator query in flight
	wasted  int
}

// benchSession wraps one round's webiface.Session: it times every query
// that goes to the wire, keeps the seeded sample of (query, answer)
// pairs for the checker, and counts failures by kind.
type benchSession struct {
	*webiface.Session
	w        *trackRemote
	keep     map[int]bool
	n        int // queries sent
	lat      []time.Duration
	checked  []sampledQuery
	budget   int // 429 responses
	failures int // transport or server errors
	err      error
}

type sampledQuery struct {
	q   hiddendb.Query
	res hiddendb.Result
}

func (s *benchSession) Search(q hiddendb.Query) (hiddendb.Result, error) {
	op := s.w.op.Add(1)
	s.w.curOp.Store(op)
	start := time.Now()
	res, err := s.Session.Search(q)
	d := time.Since(start)
	var remote *webiface.BudgetExhaustedError
	if errors.Is(err, hiddendb.ErrBudgetExhausted) && !errors.As(err, &remote) {
		return res, err // refused by the session's own budget: never sent
	}
	if s.w.tr != nil {
		s.w.tr.add(span{Op: op, Name: spanClientSearch, Shard: noShard,
			Start: int64(start.Sub(s.w.tr.t0)), End: int64(start.Add(d).Sub(s.w.tr.t0)), Key: q.Key()})
	}
	i := s.n
	s.n++
	switch {
	case remote != nil:
		s.budget++
	case err != nil:
		s.failures++
	default:
		s.lat = append(s.lat, d)
		if s.keep[i] {
			s.checked = append(s.checked, sampledQuery{q, res})
		}
		return res, nil
	}
	if s.err == nil {
		s.err = err
	}
	return res, err
}

func setupTrack(seed int64, tr *tracer) (instance, error) {
	data := workload.AutosLike(seed + seedData)
	env, err := workload.NewEnv(data, initialTuples, seed+seedEnv)
	if err != nil {
		return nil, err
	}
	w := &trackRemote{
		tr:     tr,
		env:    env,
		iface:  hiddendb.NewIface(env.Store, topK, nil),
		sample: rand.New(rand.NewSource(seed + seedSample)),
	}
	var b webiface.Backend = w.iface
	if tr != nil {
		w.backend = &tracedBackend{Backend: w.iface, tr: tr, lookup: spanLookup, find: spanSearchAnswer, shard: noShard}
		b = w.backend
	}
	w.handler = webiface.NewHandler(b)
	w.handler.SetPerKeyBudget(trackBudget)
	if w.srv, err = serve(traceHandler(w.handler, tr, spanHandler, noShard)); err != nil {
		return nil, err
	}
	rt, idle := transport(tr, spanRoundTrip, nil)
	if tt, ok := rt.(*tracedTransport); ok {
		tt.stamp = w.curOp.Load
	}
	w.idle = idle
	w.client, err = webiface.Dial(w.srv.url, webiface.ClientOptions{
		HTTPClient:     &http.Client{Timeout: 30 * time.Second, Transport: rt},
		RequestTimeout: trackTimeout,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	w.svc, err = tracking.New(w.client.Schema(), func(g int) tracking.Session {
		w.sess = &benchSession{Session: w.client.NewSession(g), w: w,
			keep: toSet(sampleIndexes(w.sample, trackBudget, trackChecks))}
		return w.sess
	}, tracking.Config{
		Algorithm:   "RS",
		Aggregates:  []*agg.Aggregate{agg.CountAll()},
		Budget:      trackBudget,
		Seed:        seed + seedEstimator,
		Parallelism: 1,
		MaxDrills:   trackMaxDrills,
	})
	if err != nil {
		w.close()
		return nil, err
	}
	if err := w.svc.StepOnce(); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	if err := w.write(0); err != nil {
		w.close()
		return nil, err
	}
	w.wasted = w.svc.CurrentView().Wasted
	return w, nil
}

func toSet(xs []int) map[int]bool {
	m := make(map[int]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

// write applies one write round and opens the next budget round.
func (w *trackRemote) write(op uint64) error {
	err := churn(w.tr, op, w.env)
	w.handler.ResetBudgets()
	if w.backend != nil {
		w.backend.arm()
	}
	return err
}

func (w *trackRemote) run(units int) (*runStats, error) {
	st := &runStats{keyOf: map[uint64]string{}}
	var relErr, relSE float64
	for i := 0; i < units; i++ {
		served0, retries0, cache0 := w.iface.TotalQueries(), w.client.RetryCount(), w.iface.CacheStats()
		st.meter.begin()
		start := time.Now()
		err := w.svc.StepOnce()
		d := time.Since(start)
		st.meter.end(w.sess.lat)
		if w.tr != nil {
			w.tr.add(span{Op: w.op.Add(1), Name: spanRound, Shard: noShard,
				Start: int64(start.Sub(w.tr.t0)), End: int64(start.Add(d).Sub(w.tr.t0))})
		}
		st.cache = addCache(st.cache, cacheDelta(cache0, w.iface.CacheStats()))
		s := w.sess
		st.reads = append(st.reads, s.lat...)
		st.failed += s.budget + s.failures
		if s.err != nil && st.firstErr == nil {
			st.firstErr = s.err
		}
		if err != nil {
			return st, fmt.Errorf("round %d: %w", i, err)
		}
		view := w.svc.CurrentView()
		st.rounds = append(st.rounds, roundInfo{
			drills: view.Drills, queries: view.UsedLast, wasted: view.Wasted - w.wasted,
		})
		w.wasted = view.Wasted
		st.retries += w.client.RetryCount() - retries0

		// Properties of the round, checked outside the timed phase.
		if s.Used() > trackBudget {
			return st, fmt.Errorf("round %d: %d queries, budget %d", i, s.Used(), trackBudget)
		}
		if served := w.iface.TotalQueries() - served0; served != uint64(s.n) {
			return st, fmt.Errorf("round %d: server answered %d queries, client sent %d", i, served, s.n)
		}
		if s.budget > 0 || s.failures > 0 || w.client.RetryCount() != retries0 {
			return st, fmt.Errorf("round %d: %d 429s, %d failures, %d retries: %v",
				i, s.budget, s.failures, w.client.RetryCount()-retries0, s.err)
		}
		ck := newChecker(topK, hiddendb.DefaultScorer, w.env.Store.Snapshot().ForEach)
		for _, sq := range s.checked {
			if err := ck.check(sq.q, sq.res); err != nil {
				return st, fmt.Errorf("round %d: %w", i, err)
			}
		}
		if len(view.Estimates) != 1 || !view.Estimates[0].OK {
			return st, fmt.Errorf("round %d: no COUNT(*) estimate", i)
		}
		truth := float64(ck.size())
		relErr += math.Abs(view.Estimates[0].Value-truth) / truth
		relSE += math.Sqrt(view.Estimates[0].Variance) / truth

		wop := w.op.Add(1)
		err = st.meter.write(func() error { return traceCall(w.tr, wop, spanWrite, func() error { return w.write(wop) }) })
		st.meter.progress(i)
		if err != nil {
			return st, fmt.Errorf("write %d: %w", i, err)
		}
	}
	st.meanRelErr = relErr / float64(units)
	st.meanRelSE = relSE / float64(units)
	if st.meanRelErr > maxMeanRelErr {
		return st, fmt.Errorf("mean relative error of COUNT(*) %.4f exceeds %.2f", st.meanRelErr, maxMeanRelErr)
	}
	return st, nil
}

func (w *trackRemote) close() {
	if w.idle != nil {
		w.idle.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.close()
	}
}
