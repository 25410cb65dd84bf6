package main

import (
	"bytes"
	"net"
	"net/http"
	"strconv"
	"time"
)

// server is one loopback HTTP listener serving a handler.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the listener and its connections and waits for Serve to
// return.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// transport is a fresh keep-alive transport configured like
// http.DefaultTransport, optionally wrapped by a tracer.
func transport(tr *tracer, name string, shardOf map[string]int) (http.RoundTripper, *http.Transport) {
	t := http.DefaultTransport.(*http.Transport).Clone()
	if tr == nil {
		return t, t
	}
	return &tracedTransport{base: t, tr: tr, name: name, shardOf: shardOf}, t
}

// getter is one closed-loop client: one keep-alive connection, one GET
// at a time, the body read in full into a reused buffer.
type getter struct {
	c    *http.Client
	idle *http.Transport
	buf  bytes.Buffer
}

func newGetter(tr *tracer) *getter {
	rt, t := transport(tr, spanRoundTrip, nil)
	return &getter{c: &http.Client{Transport: rt, Timeout: 30 * time.Second}, idle: t}
}

// get issues one GET and returns its status and latency. The body stays
// in g.buf until the next call. A non-zero op is stamped on the request
// so traced layers can attribute their spans.
func (g *getter) get(url string, op uint64) (int, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, err
	}
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	resp, err := g.c.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	g.buf.Reset()
	_, err = g.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

func (g *getter) close() { g.idle.CloseIdleConnections() }
