package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
)

// response is what a client keeps of one reply.
type response struct {
	status int
	etag   string
	ctype  string
	body   []byte
}

// target is how clients reach the system under test: in-process
// handler calls, or HTTP over loopback sockets.
type target interface {
	do(method, path string, body []byte, inm string, tg tags) (response, error)
}

// handlerTarget calls a handler in-process, the way the browse, explore
// and ingest workloads reach the node.
type handlerTarget struct{ h http.Handler }

func (t handlerTarget) do(method, path string, body []byte, inm string, tg tags) (response, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://perfbench"+path, rd)
	if err != nil {
		return response{}, err
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	tg.apply(req.Header)
	rec := &recorder{h: make(http.Header)}
	t.h.ServeHTTP(rec, req)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return response{status: rec.status, etag: rec.h.Get("ETag"), ctype: rec.h.Get("Content-Type"), body: rec.buf.Bytes()}, nil
}

// recorder is a minimal ResponseWriter that keeps status, headers and
// body.
type recorder struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }
func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(p)
}

// httpTarget sends requests over loopback to base, the way the routed
// workload reaches the router. Its transport holds at most maxConns
// connections, one per client.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string, maxConns int) *httpTarget {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &httpTarget{base: base, client: &http.Client{Transport: tr}}
}

func (t *httpTarget) do(method, path string, body []byte, inm string, tg tags) (response, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	tg.apply(req.Header)
	resp, err := t.client.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("reading %s: %w", path, err)
	}
	return response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), ctype: resp.Header.Get("Content-Type"), body: raw}, nil
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// listener serves h on a loopback socket and counts the TCP connections
// it accepts, through the server's ConnState hook.
type listener struct {
	ts    *httptest.Server
	conns atomic.Int64
}

func listen(h http.Handler) *listener {
	l := &listener{ts: httptest.NewUnstartedServer(h)}
	l.ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			l.conns.Add(1)
		}
	}
	l.ts.Start()
	return l
}
