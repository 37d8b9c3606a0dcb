package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/serve"
)

// The oneshot-classify inputs: TEASER on PowerCons, whole series per
// request, from a pool drawn with the run's seed.
const (
	oneshotDataset   = "PowerCons"
	oneshotAlgorithm = "TEASER"
	oneshotTrain     = 0.5 // 180 training series
	oneshotPool      = 1   // 360 series to send
	oneshotModel     = "teaser"
)

type oneshotEnv struct {
	sm     *servedModel
	srv    *serve.Server
	ln     *listener
	bodies [][]byte // pre-encoded request per holdout instance
	got    []decision
	seen   []bool
}

func setupOneshot(seed int64, tr *tracer) (env, error) {
	sm, err := trainServed(oneshotDataset, oneshotAlgorithm, oneshotTrain, oneshotPool, seed, tr)
	if err != nil {
		return nil, err
	}
	e := &oneshotEnv{sm: sm, got: make([]decision, sm.holdout.Len()), seen: make([]bool, sm.holdout.Len())}
	e.srv = serve.New(serve.Config{Obs: metricsCollector()})
	if err := e.srv.AddModel(oneshotModel, sm.serving, sm.meta); err != nil {
		return nil, err
	}
	var h http.Handler = e.srv.Handler()
	if tr != nil {
		h = tr.handler("serve.handler", h)
	}
	if e.ln, err = listen(h); err != nil {
		return nil, err
	}
	for _, in := range sm.holdout.Instances {
		b, err := json.Marshal(map[string]any{"model": oneshotModel, "values": in.Values})
		if err != nil {
			return nil, err
		}
		e.bodies = append(e.bodies, b)
	}
	return e, nil
}

func (e *oneshotEnv) layers() map[string]float64 { return e.sm.layers() }

func (e *oneshotEnv) close() {
	e.ln.close()
	e.srv.Close()
}

func (e *oneshotEnv) run(d time.Duration, tr *tracer) (*outcome, error) {
	clients := numClients()
	o, err := httpPhase(d, tr, clients, e.ln.url, "classify", func() bool { return allTrue(e.seen) },
		func(c int, hc *http.Client, until time.Time, keep bool, col *collect, wc *windowClock) {
			e.client(c, clients, hc, until, keep, tr, col, wc)
		})
	if err != nil {
		return nil, err
	}
	scoreCheck(o, e.sm, e.got, e.seen)
	return o, nil
}

// client is one closed-loop client: it classifies its share of the
// holdout (instances c, c+clients, …) round after round until the
// deadline, checking every answer against the reference model.
func (e *oneshotEnv) client(c, clients int, hc *http.Client, until time.Time, keep bool, tr *tracer, col *collect, wc *windowClock) {
	var t tally
	var buf bytes.Buffer
	n := e.sm.holdout.Len()
	url := e.ln.url + "/v1/classify"
	for i := c; time.Now().Before(until); i += clients {
		if i >= n {
			i = c
		}
		in := e.sm.holdout.Instances[i]
		var id *obs.TraceID
		var key fpKey
		if tr.active() {
			v := tr.newID()
			id, key = &v, fingerprint(in.Values, in.Length())
			tr.expect(key, v)
		}
		start := time.Now()
		status, err := exchange(hc, http.MethodPost, url, e.bodies[i], id, &buf)
		end := time.Now()
		if id != nil {
			tr.forget(key)
			tr.finish(*id, "classify", start, end)
		}
		t.attempted++
		t.reqBytes += len(e.bodies[i])
		t.respBytes += buf.Len()
		if err != nil || status != http.StatusOK {
			t.failed++
			t.note(fmt.Sprintf("classify instance %d: status %d: %v %s", i, status, err, buf.String()))
			continue
		}
		if keep {
			wc.ops.Add(1)
			t.lat, t.at = append(t.lat, ms(end.Sub(start))), append(t.at, end.Sub(wc.start))
		}
		var resp struct {
			Label    int `json:"label"`
			Consumed int `json:"consumed"`
		}
		if err := json.Unmarshal(buf.Bytes(), &resp); err != nil {
			t.note(fmt.Sprintf("classify instance %d: %v", i, err))
			continue
		}
		got := decision{resp.Label, resp.Consumed}
		if got != e.sm.want[i] {
			t.note(fmt.Sprintf("classify instance %d: served %+v, reference %+v", i, got, e.sm.want[i]))
		}
		if got.consumed > in.Length() {
			t.note(fmt.Sprintf("classify instance %d: consumed %d of %d points", i, got.consumed, in.Length()))
		}
		e.got[i], e.seen[i] = got, true
	}
	col.add(&t, keep)
}
