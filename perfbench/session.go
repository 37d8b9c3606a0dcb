package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/fleet"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/serve"
)

// The session-stream inputs: ECTS on Biological, which decides late, in
// chunks of a few points, with a few thousand sessions live at once.
const (
	sessionDataset   = "Biological"
	sessionAlgorithm = "ECTS"
	sessionTrain     = 0.5 // 322 training series
	sessionPool      = 1   // 644 series to stream
	sessionPoolSeed  = -2
	sessionModel     = "ects"
	sessionChunk     = 4
	liveSessions     = 2000 // below the replica's default bound of 4096
)

// slot is one live session a client keeps streaming.
type slot struct {
	id   string
	inst int // holdout instance streamed
	sent int // points sent so far
	live bool
}

// sessionClient is one closed-loop client's state; it survives between
// phases so sessions stay live across the warm-up.
type sessionClient struct {
	slots   []slot
	next    int // next slot to advance
	pos     int // next position in the stream order to start (c, c+clients, …)
	created int // sessions created, for unique IDs
}

type sessionEnv struct {
	sm      *servedModel
	srv     *serve.Server
	replica *listener
	router  *listener
	chunks  [][][]byte // [instance][chunk] pre-encoded points bodies
	order   []int      // the order the clients start the series in
	clients []*sessionClient

	mu     sync.Mutex // guards got, seen and points across clients
	got    []decision
	seen   []bool
	points []int // points sent until decided, per holdout instance
}

func setupSessions(seed int64, tr *tracer) (env, error) {
	// The series are one fixed draw, and the seed orders them: how many
	// points a session needs depends on the series, and with it the share
	// of creates and closes per points request, so a per-seed draw would
	// change the work per operation.
	sm, err := trainServed(sessionDataset, sessionAlgorithm, sessionTrain, sessionPool, sessionPoolSeed, tr)
	if err != nil {
		return nil, err
	}
	n := sm.holdout.Len()
	e := &sessionEnv{sm: sm, got: make([]decision, n), seen: make([]bool, n), points: make([]int, n),
		order: rand.New(rand.NewSource(seed)).Perm(n)}
	e.srv = serve.New(serve.Config{Obs: metricsCollector()})
	if err := e.srv.AddModel(sessionModel, sm.serving, sm.meta); err != nil {
		return nil, err
	}
	var h http.Handler = e.srv.Handler()
	if tr != nil {
		h = tr.handler("serve.handler", h)
	}
	if e.replica, err = listen(h); err != nil {
		return nil, err
	}
	rt := fleet.New(fleet.Config{Obs: metricsCollector()})
	rt.Add(fleet.NewRemote("replica-1", e.replica.url))
	h = rt.Handler()
	if tr != nil {
		h = tr.handler("fleet.router", h)
	}
	if e.router, err = listen(h); err != nil {
		e.replica.close()
		return nil, err
	}
	for _, in := range sm.holdout.Instances {
		var bodies [][]byte
		for lo := 0; lo < in.Length(); lo += sessionChunk {
			hi := min(lo+sessionChunk, in.Length())
			chunk := make([][]float64, len(in.Values))
			for v := range chunk {
				chunk[v] = in.Values[v][lo:hi]
			}
			b, err := json.Marshal(map[string]any{"values": chunk})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
		e.chunks = append(e.chunks, bodies)
	}
	clients := numClients()
	for c := 0; c < clients; c++ {
		e.clients = append(e.clients, &sessionClient{slots: make([]slot, liveSessions/clients), pos: c})
	}
	return e, nil
}

func (e *sessionEnv) layers() map[string]float64 { return e.sm.layers() }

func (e *sessionEnv) close() {
	e.router.close()
	e.replica.close()
	e.srv.Close()
}

func (e *sessionEnv) run(d time.Duration, tr *tracer) (*outcome, error) {
	// Warm up until every holdout instance has decided once, so the
	// measured phase starts with every slot mid-stream and the score
	// check below has an answer for each instance.
	o, err := httpPhase(d, tr, len(e.clients), e.replica.url, "session_points", func() bool { return allTrue(e.seen) },
		func(c int, hc *http.Client, until time.Time, keep bool, col *collect, wc *windowClock) {
			e.client(c, hc, until, keep, tr, col, wc)
		})
	if err != nil {
		return nil, err
	}
	scoreCheck(o, e.sm, e.got, e.seen)
	if tr.active() {
		total, n := 0, 0
		for i, p := range e.points {
			if e.seen[i] {
				total += p
				n++
			}
		}
		if n > 0 {
			o.layers["serve.points_per_session"] = float64(total) / float64(n)
		}
	}
	return o, nil
}

// client advances its live sessions round-robin, one chunk per visit,
// until the deadline. A session that decides is checked against the
// reference model and closed, and its slot starts the client's next
// holdout instance. Creates and closes are timed apart from the points
// requests, which are the workload's operations.
func (e *sessionEnv) client(c int, hc *http.Client, until time.Time, keep bool, tr *tracer, col *collect, wc *windowClock) {
	sc := e.clients[c]
	clients := len(e.clients)
	n := e.sm.holdout.Len()
	var t tally
	var buf bytes.Buffer
	base := e.router.url + "/v1/sessions"
	send := func(op, method, url string, body []byte, key *fpKey) (int, time.Duration, error) {
		var id *obs.TraceID
		if tr.active() {
			v := tr.newID()
			id = &v
			if key != nil {
				tr.expect(*key, v)
			}
		}
		start := time.Now()
		status, err := exchange(hc, method, url, body, id, &buf)
		end := time.Now()
		if id != nil {
			if key != nil {
				tr.forget(*key)
			}
			tr.finish(*id, op, start, end)
		}
		return status, end.Sub(start), err
	}
	for time.Now().Before(until) {
		s := &sc.slots[sc.next]
		sc.next = (sc.next + 1) % len(sc.slots)
		if !s.live {
			s.id = fmt.Sprintf("c%d-%d", c, sc.created)
			s.inst, s.sent = e.order[sc.pos], 0
			sc.created++
			if sc.pos += clients; sc.pos >= n {
				sc.pos = c
			}
			body := fmt.Appendf(nil, `{"model":%q,"session_id":%q}`, sessionModel, s.id)
			if status, _, err := send("create", http.MethodPost, base, body, nil); err != nil || status != http.StatusCreated {
				t.note(fmt.Sprintf("create %s: status %d: %v %s", s.id, status, err, buf.String()))
				continue
			}
			s.live = true
		}
		in := e.sm.holdout.Instances[s.inst]
		body := e.chunks[s.inst][s.sent/sessionChunk]
		upto := min(s.sent+sessionChunk, in.Length())
		var key *fpKey
		if tr.active() {
			k := fingerprint(in.Values, upto)
			key = &k
		}
		status, took, err := send("points", http.MethodPost, base+"/"+s.id+"/points", body, key)
		t.attempted++
		t.reqBytes += len(body)
		t.respBytes += buf.Len()
		if err != nil || status != http.StatusOK {
			t.failed++
			t.note(fmt.Sprintf("points %s: status %d: %v %s", s.id, status, err, buf.String()))
			s.live = false
			continue
		}
		if keep {
			wc.ops.Add(1)
			t.lat, t.at = append(t.lat, ms(took)), append(t.at, time.Since(wc.start))
		}
		s.sent = upto
		var st struct {
			Status   string `json:"status"`
			Label    int    `json:"label"`
			Consumed int    `json:"consumed"`
		}
		if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
			t.note(fmt.Sprintf("points %s: %v", s.id, err))
			continue
		}
		if st.Status != "decided" {
			if s.sent >= in.Length() {
				t.note(fmt.Sprintf("session %s: pending after the whole series", s.id))
				s.live = false
			}
			continue
		}
		got := decision{st.Label, st.Consumed}
		if got != e.sm.want[s.inst] {
			t.note(fmt.Sprintf("session %s (instance %d): served %+v, reference %+v", s.id, s.inst, got, e.sm.want[s.inst]))
		}
		if got.consumed > s.sent {
			t.note(fmt.Sprintf("session %s: consumed %d of %d points sent", s.id, got.consumed, s.sent))
		}
		e.mu.Lock()
		e.got[s.inst], e.seen[s.inst], e.points[s.inst] = got, true, s.sent
		e.mu.Unlock()
		if status, _, err := send("close", http.MethodDelete, base+"/"+s.id, nil, nil); err != nil || status != http.StatusNoContent {
			t.note(fmt.Sprintf("close %s: status %d: %v %s", s.id, status, err, buf.String()))
		}
		s.live = false
	}
	col.add(&t, keep)
}
