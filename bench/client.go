package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"adc/internal/server"
)

// api drives an in-process dcserved through its http.Handler: no
// sockets, no TCP stack, so the time measured is the server's own plus
// the JSON each side encodes.
type api struct {
	h http.Handler
}

func newAPI(cfg server.Config) (*api, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &api{h: srv.Handler()}, nil
}

// do sends one request and decodes a 2xx JSON response into out (nil
// discards it). It returns the route time, the span of ServeHTTP alone,
// which it also records as the span "server.<route>" under parent; the
// span is returned so callers can hang server-reported stages under it.
func (a *api) do(parent *span, route, method, path, contentType string, body []byte, out any) (*span, time.Duration, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	sp := parent.child("server." + route)
	start := time.Now()
	a.h.ServeHTTP(rec, req)
	d := time.Since(start)
	sp.end(nil)
	if rec.Code < 200 || rec.Code > 299 {
		return sp, d, fmt.Errorf("%s %s: http %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return sp, d, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return sp, d, nil
}

// msDur converts a server-reported millisecond figure to a Duration.
func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request structs are marshaled
	}
	return b
}

// Wire shapes of the dcserved responses the benchmark reads.
type datasetResp struct {
	ID   string `json:"id"`
	Rows int    `json:"rows"`
}

type verdictResp struct {
	DC         string `json:"dc"`
	Violations int64  `json:"violations"`
}

type validateResp struct {
	Rows       int           `json:"rows"`
	DCs        []verdictResp `json:"dcs"`
	DurationMS float64       `json:"duration_ms"`
}

type appendResp struct {
	Rows int `json:"rows"`
}

type validateReq struct {
	DCs      []string `json:"dcs"`
	MaxPairs int      `json:"max_pairs"`
}

type appendReq struct {
	Rows [][]string `json:"rows"`
}

func (a *api) register(parent *span, in *input) (datasetResp, time.Duration, error) {
	var out datasetResp
	_, d, err := a.do(parent, "register", "POST", "/datasets?name="+in.name, "text/csv", in.csv, &out)
	return out, d, err
}

func (a *api) validate(parent *span, id string, body []byte) (validateResp, time.Duration, error) {
	return a.check(parent, "validate", "violation.check", id, body)
}

// firstValidate is a restarted server's first validate of a dataset.
// Its route also restores the session (snapshot attach and log replay),
// so its spans are named apart from the steady-state validates.
func (a *api) firstValidate(parent *span, id string, body []byte) (validateResp, time.Duration, error) {
	return a.check(parent, "first_validate", "violation.first_check", id, body)
}

func (a *api) check(parent *span, route, checkSpan, id string, body []byte) (validateResp, time.Duration, error) {
	var out validateResp
	sp, d, err := a.do(parent, route, "POST", "/datasets/"+id+"/validate", "application/json", body, &out)
	if err == nil && sp != nil {
		// The check's own time, as the server reports it, placed at the
		// route's start: the server does not report where inside the
		// route it ran, only how long.
		sp.add(checkSpan, sp.start, msDur(out.DurationMS), nil)
	}
	return out, d, err
}

func (a *api) appendRows(parent *span, id string, rows [][]string) (appendResp, time.Duration, error) {
	var out appendResp
	_, d, err := a.do(parent, "append", "POST", "/datasets/"+id+"/rows", "application/json", mustJSON(appendReq{Rows: rows}), &out)
	return out, d, err
}

func (a *api) info(parent *span, id string) (datasetResp, error) {
	var out datasetResp
	_, _, err := a.do(parent, "info", "GET", "/datasets/"+id, "", nil, &out)
	return out, err
}

func (a *api) remove(parent *span, id string) error {
	_, _, err := a.do(parent, "delete", "DELETE", "/datasets/"+id, "", nil, nil)
	return err
}
