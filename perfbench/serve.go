package main

import (
	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/workload"
	"github.com/dynagg/dynagg/webiface"
)

// serve-churn: closed-loop clients send Zipf GETs at one single-process
// webiface.Handler; every serveSegment reads they wait at a barrier
// while one write round is applied.
const (
	serveClients = 2
	serveSegment = 2000
	serveWarmup  = 2000 // Zipf warm-up reads, followed by one write
	serveChecks  = 8    // reads checked per segment
)

type serveChurn struct {
	segments
	env     *workload.Env
	iface   *hiddendb.Iface
	backend *tracedBackend // nil unless traced
	srv     *server
}

func setupServe(seed int64, tr *tracer) (instance, error) {
	data := workload.AutosLike(seed + seedData)
	env, err := workload.NewEnv(data, initialTuples, seed+seedEnv)
	if err != nil {
		return nil, err
	}
	w := &serveChurn{
		segments: newSegments(tr, data, seed, serveSegment, serveChecks, 1),
		env:      env,
		iface:    hiddendb.NewIface(env.Store, topK, nil),
	}
	var b webiface.Backend = w.iface
	if tr != nil {
		w.backend = &tracedBackend{Backend: w.iface, tr: tr, lookup: spanLookup, find: spanSearchAnswer, shard: noShard}
		b = w.backend
	}
	if w.srv, err = serve(traceHandler(webiface.NewHandler(b), tr, spanHandler, noShard)); err != nil {
		return nil, err
	}
	for i := 0; i < serveClients; i++ {
		w.gs = append(w.gs, newGetter(tr))
	}
	w.target(w.srv.url)
	if err := warmUp(w.gs, w.srv.url, data.Schema, w.urls, zipfReads(w.reads, serveWarmup)); err != nil {
		w.close()
		return nil, err
	}
	if err := w.write(0); err != nil {
		w.close()
		return nil, err
	}
	if err := attributeReads(w.gs, w.srv.url, data.Schema); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// write applies one write round and marks the next engine read as the
// first after a write.
func (w *serveChurn) write(op uint64) error {
	err := churn(w.tr, op, w.env)
	if w.backend != nil {
		w.backend.arm()
	}
	return err
}

func (w *serveChurn) run(units int) (*runStats, error) {
	st, cache, err := w.drive(units, w.iface.CacheStats,
		func() *checker { return newChecker(topK, hiddendb.DefaultScorer, w.env.Store.Snapshot().ForEach) },
		func(op uint64) error { return traceCall(w.tr, op, spanWrite, func() error { return w.write(op) }) })
	st.cache = cache
	return st, err
}

func (w *serveChurn) close() {
	w.closeClients()
	if w.srv != nil {
		w.srv.close()
	}
}
