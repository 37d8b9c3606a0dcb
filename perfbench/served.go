package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/datasets"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/persist"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// decision is one (label, consumed) answer.
type decision struct{ label, consumed int }

// servedModel is a model trained, saved and loaded back the way a
// deployment gets it, with a separately loaded reference copy and the
// reference's answers on the holdout.
type servedModel struct {
	serving    core.EarlyClassifier // what the server gets (decorated when traced)
	ref        core.EarlyClassifier // loaded apart from serving, never served
	meta       persist.Meta
	holdout    *ts.Dataset
	want       []decision // ref.Classify on each holdout instance
	artifact   int        // bytes
	loadMS     float64
	generateMS float64
}

// modelSeed fixes the served models' training data and parameters: a
// run's --seed draws the traffic, not the model, so every seed measures
// the same deployment under different requests.
const modelSeed = -1

// trainServed trains the named algorithm (fast preset) on a draw of the
// dataset at trainScale made with modelSeed, round-trips it through
// persist, and makes the holdout the clients send from a second draw at
// poolScale made with seed.
func trainServed(dataset, algorithm string, trainScale, poolScale float64, seed int64, tr *tracer) (*servedModel, error) {
	spec, err := datasets.ByName(dataset)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	train := spec.Generate(trainScale, modelSeed)
	train.Interpolate()
	holdout := spec.Generate(poolScale, seed)
	holdout.Interpolate()
	generateMS := ms(time.Since(t0))
	sm, err := fitAndPersist(train, algorithm, tr)
	if err != nil {
		return nil, err
	}
	sm.generateMS = generateMS
	sm.holdout = holdout
	sm.want = make([]decision, holdout.Len())
	for i, in := range holdout.Instances {
		l, c := sm.ref.Classify(in)
		sm.want[i] = decision{l, c}
	}
	return sm, nil
}

// fitAndPersist trains algorithm on train and loads it back twice from
// its artifact: once to serve and once as the reference.
func fitAndPersist(train *ts.Dataset, algorithm string, tr *tracer) (*servedModel, error) {
	var factory core.Factory
	for _, f := range bench.Algorithms(train.Name, bench.Fast, modelSeed) {
		if f.Name == algorithm {
			factory = f.New
		}
	}
	if factory == nil {
		return nil, fmt.Errorf("unknown algorithm %q", algorithm)
	}
	algo := core.WrapForDataset(factory, train)
	if err := algo.Fit(train); err != nil {
		return nil, fmt.Errorf("fit %s on %s: %w", algorithm, train.Name, err)
	}
	meta := persist.Meta{Dataset: train.Name, Length: train.MaxLength(),
		NumVars: train.NumVars(), NumClasses: train.NumClasses()}
	var buf bytes.Buffer
	if err := persist.Save(&buf, algo, meta); err != nil {
		return nil, err
	}
	t0 := time.Now()
	serving, meta, err := persist.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	loadMS := ms(time.Since(t0))
	ref, _, err := persist.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	if tr != nil {
		serving = decorate(serving, tr)
	}
	return &servedModel{serving: serving, ref: ref, meta: meta, artifact: buf.Len(), loadMS: loadMS}, nil
}

func (sm *servedModel) layers() map[string]float64 {
	return map[string]float64{
		"datasets.generate_ms":   sm.generateMS,
		"persist.artifact_bytes": float64(sm.artifact),
		"persist.load_ms":        sm.loadMS,
	}
}

// metricsCollector is the registry etsc-serve always runs with: the
// stats plane and /metrics need it.
func metricsCollector() *obs.Collector {
	return obs.New(obs.Options{Metrics: obs.NewRegistry()})
}

// listener is one HTTP server on a loopback port.
type listener struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listener{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return l, nil
}

// close stops the server and waits for its accept loop to end.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	<-l.done
}

// numClients is the closed-loop client count: one busy client per core,
// at most two, so the workload is the same on any machine.
func numClients() int {
	return min(2, runtime.NumCPU())
}

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// exchange sends one request and reads the whole response body into buf.
// With an ID it carries the request's trace header.
func exchange(c *http.Client, method, url string, body []byte, id *obs.TraceID, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id != nil {
		req.Header.Set(obs.TraceHeader, obs.TraceContext{Trace: *id, Span: obs.SpanID{1}}.Header())
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// scoreCheck compares the accuracy and earliness the benchmark computes
// from the served answers with core.Score of the reference model on the
// same holdout. got[i] is the served answer for holdout instance i.
func scoreCheck(o *outcome, sm *servedModel, got []decision, seen []bool) {
	correct, n := 0, 0
	earl := 0.0
	for i, in := range sm.holdout.Instances {
		if !seen[i] {
			o.problem("holdout instance %d got no answer", i)
			return
		}
		if got[i].label == in.Label {
			correct++
		}
		earl += math.Min(1, float64(got[i].consumed)/float64(in.Length()))
		n++
	}
	acc := float64(correct) / float64(n)
	earl /= float64(n)
	want := core.Score(sm.ref, sm.holdout, sm.meta.NumClasses)
	if math.Abs(acc-want.Accuracy) > 1e-9 || math.Abs(earl-want.Earliness) > 1e-9 {
		o.problem("served accuracy %.6f earliness %.6f, core.Score %.6f %.6f",
			acc, earl, want.Accuracy, want.Earliness)
	}
}

// tally is what one client saw in one phase.
type tally struct {
	lat       []float64       // ms per operation
	at        []time.Duration // when each operation completed, in the phase
	attempted int
	failed    int
	reqBytes  int
	respBytes int
	problems  []string // failed checks, the first twenty
}

func (t *tally) note(p string) {
	if len(t.problems) < 20 {
		t.problems = append(t.problems, p)
	}
}

// collect merges the clients' tallies of one phase.
type collect struct {
	mu sync.Mutex
	tally
}

// add merges t. Failed checks always count; the measurements only when
// keep is set, so a warm-up's problems are reported but its figures are
// not.
func (c *collect) add(t *tally, keep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range t.problems {
		c.note(p)
	}
	if !keep {
		return
	}
	c.lat = append(c.lat, t.lat...)
	c.at = append(c.at, t.at...)
	c.attempted += t.attempted
	c.failed += t.failed
	c.reqBytes += t.reqBytes
	c.respBytes += t.respBytes
}

// warmup is the untimed lead-in of the HTTP workloads: connections open
// and the server's pools and the runtime's heap reach their working size.
func warmup(d time.Duration) time.Duration {
	return min(2*time.Second, d/10)
}

// clientFunc is one closed-loop client of an HTTP workload: it sends
// requests on hc until the deadline and adds what it saw to col. Only
// with keep set does it count its operations in wc and keep their
// latencies.
type clientFunc func(c int, hc *http.Client, until time.Time, keep bool, col *collect, wc *windowClock)

// httpPhase runs one phase of an HTTP workload with the given number of
// clients: untimed warm-ups until warm reports true, then a measured
// phase of length d in one-second windows. When tracing it also reports
// the mean admission wait of route, scraped from serverURL's /metrics,
// and the mean request and response body sizes.
func httpPhase(d time.Duration, tr *tracer, clients int, serverURL, route string, warm func() bool, client clientFunc) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	hcs := make([]*http.Client, clients)
	for i := range hcs {
		hcs[i] = newClient()
	}
	defer func() {
		for _, c := range hcs {
			c.CloseIdleConnections()
		}
	}()
	var wc *windowClock
	drive := func(until time.Time, keep bool) *collect {
		col := &collect{}
		var wg sync.WaitGroup
		for c := range hcs {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(c, hcs[c], until, keep, col, wc)
			}(c)
		}
		wg.Wait()
		return col
	}
	for begun := time.Now(); ; {
		for _, p := range drive(time.Now().Add(warmup(d)), false).problems {
			o.problem("%s", p)
		}
		if warm() {
			break
		}
		if time.Since(begun) > time.Minute {
			return nil, errors.New("warm-up: a holdout instance never got an answer")
		}
	}
	runtime.GC()
	queue := func() (float64, float64, error) {
		return scrapeHistogram(serverURL+"/metrics", "etsc_serve_queue_wait_seconds", `{route="`+route+`"}`)
	}
	var qSum0, qCount0 float64
	if tr.active() {
		var err error
		if qSum0, qCount0, err = queue(); err != nil {
			return nil, err
		}
	}
	wc = startWindows(time.Second)
	col := drive(time.Now().Add(d), true)
	o.fig = reduce(wc.finish(col.at, col.lat))
	o.wall = time.Since(wc.start)
	for _, p := range col.problems {
		o.problem("%s", p)
	}
	o.attempted, o.failed = col.attempted, col.failed
	if tr.active() {
		qSum, qCount, err := queue()
		if err != nil {
			return nil, err
		}
		if n := qCount - qCount0; n > 0 {
			o.layers["serve.queue_wait_us"] = (qSum - qSum0) / n * 1e6
		}
		o.layers["serve.request_bytes"] = float64(col.reqBytes) / float64(col.attempted)
		o.layers["serve.response_bytes"] = float64(col.respBytes) / float64(col.attempted)
	}
	return o, nil
}

// allTrue reports whether every element of seen is set.
func allTrue(seen []bool) bool {
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}
