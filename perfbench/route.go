package main

import (
	"context"
	"net/http"
	"net/url"
	"time"

	"github.com/dynagg/dynagg/internal/hiddendb"
	"github.com/dynagg/dynagg/internal/router"
	"github.com/dynagg/dynagg/internal/schema"
	"github.com/dynagg/dynagg/internal/workload"
	"github.com/dynagg/dynagg/webiface"
)

// router-zipf: one closed-loop client sends Zipf GETs through a
// router.Router over routerShards in-process ShardAdmin daemons (a
// ShardedEnv partition, as dynagg-loadgen -selfserve-router builds it);
// every routerSegment reads the fleet runs two-phase epoch handshakes,
// routerHandshakes in a row, each a write op. One handshake takes about
// 3 ms, so a single one per segment would leave write_p50_ms the median
// of five samples, each of which a few milliseconds of CPU stolen by
// the host can double; the reads see the same fleet either way.
const (
	routerShards     = 4
	routerSegment    = 500
	routerHandshakes = 6
	routerWarmup     = 100 // Zipf warm-up reads, followed by one handshake
	routerChecks     = 8
)

type routerZipf struct {
	segments
	stores []*hiddendb.ShardedStore
	ifaces []*hiddendb.ShardedIface
	shards []*server
	rt     *router.Router
	front  *server
	ck     *checker
}

func setupRouter(seed int64, tr *tracer) (instance, error) {
	data := workload.AutosLike(seed + seedData)
	senv, err := workload.NewShardedEnv(data, initialTuples, seed+seedEnv, routerShards)
	if err != nil {
		return nil, err
	}
	w := &routerZipf{segments: newSegments(tr, data, seed, routerSegment, routerChecks, routerHandshakes)}
	var bases []string
	shardOf := map[string]int{}
	for i := 0; i < routerShards; i++ {
		var part []*schema.Tuple
		senv.Store.Shard(i).ForEach(func(t *schema.Tuple) { part = append(part, t.Clone(t.ID)) })
		ss := hiddendb.NewShardedStore(data.Schema, 1)
		if err := ss.ApplyBatch(part, nil); err != nil {
			w.close()
			return nil, err
		}
		iface := hiddendb.NewShardedIface(ss, topK, nil)
		var b webiface.Backend = iface
		if tr != nil {
			b = &tracedBackend{Backend: iface, tr: tr, lookup: spanShardLookup, find: spanShardSearch, shard: i}
		}
		admin := router.NewShardAdmin(ss, webiface.NewHandler(b), router.AdminOptions{})
		srv, err := serve(traceHandler(admin, tr, spanShardHandler, i))
		if err != nil {
			w.close()
			return nil, err
		}
		w.stores, w.ifaces, w.shards = append(w.stores, ss), append(w.ifaces, iface), append(w.shards, srv)
		bases = append(bases, srv.url)
		u, _ := url.Parse(srv.url)
		shardOf[u.Host] = i
	}
	var opts router.Options
	if tr != nil {
		// Configured like router.New's default shard client, with the
		// transport wrapped to time each shard hop.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns = 0
		t.MaxIdleConnsPerHost = 256
		opts.Client.HTTPClient = &http.Client{Timeout: 30 * time.Second,
			Transport: &tracedTransport{base: t, tr: tr, name: spanShardRT, shardOf: shardOf}}
	}
	if w.rt, err = router.New(bases, opts); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.rt.Handshake(context.Background()); err != nil {
		w.close()
		return nil, err
	}
	if w.front, err = serve(traceHandler(w.rt, tr, spanRouterServe, noShard)); err != nil {
		w.close()
		return nil, err
	}
	w.gs = []*getter{newGetter(tr)}
	w.target(w.front.url)
	// The fleet is static: the reference is the union of the shards.
	w.ck = newChecker(topK, hiddendb.DefaultScorer, func(fn func(*schema.Tuple)) {
		for _, ss := range w.stores {
			ss.ForEach(fn)
		}
	})
	if err := warmUp(w.gs, w.front.url, data.Schema, w.urls, zipfReads(w.reads, routerWarmup)); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.rt.Handshake(context.Background()); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *routerZipf) shardCache() hiddendb.CacheStats {
	var s hiddendb.CacheStats
	for _, f := range w.ifaces {
		s = addCache(s, f.CacheStats())
	}
	return s
}

func (w *routerZipf) run(units int) (*runStats, error) {
	retries0 := w.rt.RetryCount()
	st, cache, err := w.drive(units, w.shardCache, func() *checker { return w.ck }, func(op uint64) error {
		return traceCall(w.tr, op, spanHandshake, func() error {
			_, err := w.rt.Handshake(context.Background())
			return err
		})
	})
	st.shardCache = cache
	st.retries = w.rt.RetryCount() - retries0
	return st, err
}

func (w *routerZipf) close() {
	w.closeClients()
	if w.front != nil {
		w.front.close()
	}
	for _, s := range w.shards {
		s.close()
	}
}
