package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/obs"
)

// maxSpans bounds the spans a traced run keeps for its trace file; the
// per-layer metrics use every call, not only the kept spans.
const maxSpans = 200_000

// span is one timed call at a layer boundary. Spans of one request share
// ID; a span's parent is the enclosing span of the same ID one layer out
// (client > fleet.router > serve.handler > core.classify / core.advance).
type span struct {
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the tracer started
	DurUS   float64 `json:"dur_us"`
}

// fpKey identifies the point a request ends with: the prefix length and
// a hash of every variable's value at that point. Clients register it
// before sending, so a classifier call deep inside the server can be
// tied back to the request that carried its data.
type fpKey struct {
	n    int
	hash uint64
}

// fingerprint keys the point at index n-1 of values ([variable][time]).
func fingerprint(values [][]float64, n int) fpKey {
	h := fnv.New64a()
	for _, v := range values {
		hashFloat(h, v[n-1])
	}
	return fpKey{n: n, hash: h.Sum64()}
}

// pointKey keys a point given as one value per variable, the n-th of
// its series: the key fingerprint gives once the point is appended.
func pointKey(n int, point []float64) fpKey {
	h := fnv.New64a()
	for _, x := range point {
		hashFloat(h, x)
	}
	return fpKey{n: n, hash: h.Sum64()}
}

func hashFloat(h hash.Hash64, x float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
	h.Write(b[:])
}

// reqTimes accumulates one request's time in each server-side layer.
type reqTimes struct {
	router, handler, inner time.Duration
}

// tracer keeps the traced run's spans in memory and derives per-layer
// samples from them. It is off until enable; while off every hook
// forwards at the cost of one atomic load.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	dropped  int
	samples  map[string][]float64
	inflight map[fpKey]obs.TraceID
	reqs     map[obs.TraceID]*reqTimes
	nextID   uint64
}

func newTracer() *tracer {
	return &tracer{
		t0:       time.Now(),
		samples:  map[string][]float64{},
		inflight: map[fpKey]obs.TraceID{},
		reqs:     map[obs.TraceID]*reqTimes{},
	}
}

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// active reports whether calls are being traced; a nil tracer never is.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// newID returns a fresh request identifier (a trace ID, so it travels
// in the X-Etsc-Trace header through the router to the replica).
func (t *tracer) newID() obs.TraceID {
	t.mu.Lock()
	t.nextID++
	n := t.nextID
	t.mu.Unlock()
	var id obs.TraceID
	binary.BigEndian.PutUint64(id[8:], n)
	return id
}

// record keeps one span (up to maxSpans) under the caller's lock.
func (t *tracer) recordLocked(id obs.TraceID, name string, start, end time.Time) {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id.String(), Name: name,
		StartUS: float64(start.Sub(t.t0)) / 1e3,
		DurUS:   float64(end.Sub(start)) / 1e3,
	})
}

// sample appends one per-layer value under the caller's lock.
func (t *tracer) sampleLocked(layer string, v float64) {
	t.samples[layer] = append(t.samples[layer], v)
}

// expect ties the point key to request id until forget.
func (t *tracer) expect(key fpKey, id obs.TraceID) {
	t.mu.Lock()
	t.inflight[key] = id
	t.mu.Unlock()
}

func (t *tracer) forget(key fpKey) {
	t.mu.Lock()
	delete(t.inflight, key)
	t.mu.Unlock()
}

// forgetAll drops every pending key and per-request sum (ingest: its
// events have no client span to close them, and events after a window's
// decision never reach a cursor).
func (t *tracer) forgetAll() {
	t.mu.Lock()
	clear(t.inflight)
	clear(t.reqs)
	t.mu.Unlock()
}

func (t *tracer) timed() bool { return t.active() }

// observe implements observer for served models: each Classify or
// Advance becomes a span of the request that carried its last point.
func (t *tracer) observe(c call) {
	if !t.active() {
		return
	}
	var key fpKey
	var layer string
	switch c.kind {
	case callClassify:
		key, layer = fingerprint(c.in.Values, c.in.Length()), "core.classify"
	case callAdvance:
		key, layer = fingerprint(c.in.Values, c.upto), "core.advance"
	default:
		return
	}
	d := c.end.Sub(c.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.inflight[key]
	if ok {
		r := t.reqsLocked(id)
		r.inner += d
	}
	t.recordLocked(id, layer, c.start, c.end)
	t.sampleLocked(layer+"_us", us(d))
}

func (t *tracer) reqsLocked(id obs.TraceID) *reqTimes {
	r := t.reqs[id]
	if r == nil {
		r = &reqTimes{}
		t.reqs[id] = r
	}
	return r
}

// handler wraps a server or router handler with a span per request; the
// request's ID comes from its X-Etsc-Trace header.
func (t *tracer) handler(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active() {
			h.ServeHTTP(w, r)
			return
		}
		tc, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if !ok {
			return
		}
		t.mu.Lock()
		rt := t.reqsLocked(tc.Trace)
		if layer == "fleet.router" {
			rt.router += end.Sub(start)
		} else {
			rt.handler += end.Sub(start)
		}
		t.recordLocked(tc.Trace, layer, start, end)
		t.mu.Unlock()
	})
}

// finish closes a client request: it records the client span and the
// per-layer self times the request's spans give. op names the request
// kind ("classify", "points", "create" or "close").
func (t *tracer) finish(id obs.TraceID, op string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recordLocked(id, "client", start, end)
	r := t.reqs[id]
	delete(t.reqs, id)
	if r == nil {
		return
	}
	outer := r.handler
	if r.router > 0 {
		outer = r.router
	}
	switch op {
	case "create", "close":
		t.sampleLocked("serve."+op+"_us", us(r.handler))
		return
	}
	t.sampleLocked("transport.rtt_us", us(end.Sub(start)-outer))
	t.sampleLocked("serve.handler_us", us(r.handler-r.inner))
	if r.router > 0 {
		t.sampleLocked("fleet.route_us", us(r.router-r.handler))
	}
}

// sampleCount reports how many values a layer holds.
func (t *tracer) sampleCount(layer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.samples[layer])
}

// median returns the median of a layer's samples, 0 when it has none.
func (t *tracer) median(layer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.samples[layer])
}

// sum returns the sum of a layer's samples.
func (t *tracer) sum(layer string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := 0.0
	for _, v := range t.samples[layer] {
		s += v
	}
	return s
}

// write saves the kept spans as JSON lines, one span per line, followed
// by one summary line with the count of spans not kept.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	err = enc.Encode(map[string]int{"kept_spans": len(t.spans), "dropped_spans": t.dropped})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// scrapeHistogram reads one histogram's sum and count from a Prometheus
// text exposition.
func scrapeHistogram(url, name, labels string) (sum float64, count float64, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, 0, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var dst *float64
		switch {
		case strings.HasPrefix(line, name+"_sum"+labels+" "):
			dst = &sum
		case strings.HasPrefix(line, name+"_count"+labels+" "):
			dst = &count
		default:
			continue
		}
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], dst); err != nil {
			return 0, 0, fmt.Errorf("scrape %s: %q: %w", url, line, err)
		}
	}
	return sum, count, sc.Err()
}
