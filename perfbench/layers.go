package main

import (
	"time"
)

// layerMetrics reduces a traced run's linked spans and layer counters to
// the per-layer metrics. Per-op times are medians over the ops that
// crossed the layer; a layer the workload bypasses reads 0. A self time
// is a span's duration minus the part its child spans cover.
func layerMetrics(tr *tracer, st *runStats) map[string]metric {
	byName := map[string][]*span{}
	children := map[int][]*span{}
	for i := range tr.spans {
		s := &tr.spans[i]
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	child := func(p *span, names ...string) *span {
		for _, c := range children[p.ID] {
			for _, n := range names {
				if c.Name == n {
					return c
				}
			}
		}
		return nil
	}
	childSum := func(p *span) time.Duration {
		var d time.Duration
		for _, c := range children[p.ID] {
			d += c.dur()
		}
		return d
	}

	out := map[string]metric{}
	p50 := func(name, unit string, scale time.Duration, ds []time.Duration) {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d) / float64(scale)
		}
		out[name] = metric{quantile(xs, 0.5), unit}
	}
	durs := func(name string) []time.Duration {
		var ds []time.Duration
		for _, s := range byName[name] {
			ds = append(ds, s.dur())
		}
		return ds
	}

	// Estimator and tracking.
	var selfRound []time.Duration
	for _, r := range byName[spanRound] {
		selfRound = append(selfRound, r.dur()-childSum(r))
	}
	p50("tracking.round_ms", "ms", time.Millisecond, durs(spanRound))
	p50("estimator.self_ms", "ms", time.Millisecond, selfRound)
	var drills, queries, wasted float64
	for _, r := range st.rounds {
		drills += float64(r.drills)
		queries += float64(r.queries)
		wasted += float64(r.wasted)
	}
	if n := float64(len(st.rounds)); n > 0 {
		drills, queries, wasted = drills/n, queries/n, wasted/n
	}
	out["estimator.drill_downs"] = metric{drills, "count"}
	out["estimator.queries"] = metric{queries, "count"}
	out["estimator.wasted_queries"] = metric{wasted, "count"}

	// Client codec.
	var codec []time.Duration
	for _, s := range byName[spanClientSearch] {
		if rt := child(s, spanRoundTrip); rt != nil {
			codec = append(codec, s.dur()-rt.dur())
		}
	}
	p50("webiface.client.search_us", "us", time.Microsecond, durs(spanClientSearch))
	p50("webiface.client.codec_us", "us", time.Microsecond, codec)

	// Loopback HTTP between the client and the first server.
	var transport []time.Duration
	var bytes, served float64
	for _, s := range byName[spanRoundTrip] {
		if h := child(s, spanHandler, spanRouterServe); h != nil {
			transport = append(transport, s.dur()-h.dur())
			bytes += float64(h.Bytes)
			served++
		}
	}
	p50("net.roundtrip_us", "us", time.Microsecond, durs(spanRoundTrip))
	p50("net.transport_us", "us", time.Microsecond, transport)
	if served > 0 {
		bytes /= served
	}
	out["net.response_kb"] = metric{bytes / 1024, "KiB"}

	// webiface.Handler and its backend.
	var handlerSelf, firstRead []time.Duration
	for _, s := range byName[spanHandler] {
		handlerSelf = append(handlerSelf, s.dur()-childSum(s))
	}
	for _, s := range byName[spanSearchAnswer] {
		if s.First {
			firstRead = append(firstRead, s.dur())
		}
	}
	p50("webiface.handler_us", "us", time.Microsecond, durs(spanHandler))
	p50("webiface.handler.self_us", "us", time.Microsecond, handlerSelf)
	p50("hiddendb.lookup_us", "us", time.Microsecond, durs(spanLookup))
	p50("hiddendb.search_answer_us", "us", time.Microsecond, durs(spanSearchAnswer))
	p50("hiddendb.first_read_us", "us", time.Microsecond, firstRead)
	p50("hiddendb.insert_ms", "ms", time.Millisecond, durs(spanInsert))
	p50("hiddendb.delete_ms", "ms", time.Millisecond, durs(spanDelete))
	reads := float64(len(st.reads))
	out["hiddendb.cache_hit_ratio"] = metric{ratio(st.cache.Hits, st.cache.Hits+st.cache.Misses), "ratio"}
	out["hiddendb.cache_collapsed_per_kop"] = metric{1000 * float64(st.cache.Collapsed) / reads, "count"}

	// Router fan-out and the shard daemons behind it.
	var routerSelf, skew, shardBackend []time.Duration
	for _, s := range byName[spanRouterServe] {
		var lo, hi time.Duration
		n := 0
		for _, c := range children[s.ID] {
			if c.Name != spanShardRT {
				continue
			}
			if n == 0 || c.dur() < lo {
				lo = c.dur()
			}
			if c.dur() > hi {
				hi = c.dur()
			}
			n++
		}
		if n > 0 {
			routerSelf = append(routerSelf, s.dur()-hi)
			skew = append(skew, hi-lo)
		}
	}
	for _, s := range byName[spanShardHandler] {
		shardBackend = append(shardBackend, childSum(s))
	}
	p50("router.serve_us", "us", time.Microsecond, durs(spanRouterServe))
	p50("router.self_us", "us", time.Microsecond, routerSelf)
	p50("router.shard_roundtrip_us", "us", time.Microsecond, durs(spanShardRT))
	p50("router.shard_skew_us", "us", time.Microsecond, skew)
	p50("router.shard.handler_us", "us", time.Microsecond, durs(spanShardHandler))
	p50("router.shard.backend_us", "us", time.Microsecond, shardBackend)
	out["router.shard.cache_hit_ratio"] = metric{
		ratio(st.shardCache.Hits, st.shardCache.Hits+st.shardCache.Misses), "ratio"}
	p50("router.handshake_ms", "ms", time.Millisecond, durs(spanHandshake))
	out["router.retries"] = metric{float64(st.retries), "count"}

	// Go runtime during the read phases.
	var numGC, pauseNs float64
	for _, p := range st.meter.phases {
		numGC += float64(p.numGC)
		pauseNs += float64(p.pauseNs)
	}
	out["runtime.gc_cycles_per_kop"] = metric{1000 * numGC / reads, "count"}
	out["runtime.gc_pause_ms"] = metric{pauseNs / 1e6, "ms"}
	return out
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
