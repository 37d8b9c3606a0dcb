package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/datasets"
	"github.com/goetsc/goetsc/internal/ingest"
	"github.com/goetsc/goetsc/internal/obs"
	"github.com/goetsc/goetsc/internal/serve"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// The maritime-ingest inputs: an ECTS model trained on a fixed Maritime
// draw, and the event stream of a draw made with the run's seed,
// replayed round after round.
const (
	ingestModel       = "maritime"
	ingestTrainScale  = 0.05
	ingestStreamScale = 0.25 // 2000 vessel windows, 60000 events a round
	ingestCohort      = 8
	ingestTTL         = 30 * time.Minute
)

type ingestEnv struct {
	sm       *servedModel
	srv      *serve.Server
	stream   *ts.Dataset
	events   []ingest.Event
	entity   []int  // entity (instance) index of each event
	deciding []bool // whether the event is its window's deciding one
	want     []decision
	rounds   int64 // rounds replayed so far; the fake clock reads it
	clock    func() time.Time
	shards   int
}

func setupIngest(seed int64, tr *tracer) (env, error) {
	t0 := time.Now()
	train := datasets.Maritime(ingestTrainScale, modelSeed)
	stream := datasets.Maritime(ingestStreamScale, seed)
	events := datasets.MaritimeEvents(ingestStreamScale, seed, ingestCohort)
	gen := ms(time.Since(t0))
	sm, err := fitAndPersist(train, "ECTS", tr)
	if err != nil {
		return nil, err
	}
	sm.generateMS = gen
	e := &ingestEnv{sm: sm, stream: stream, events: events, shards: runtime.NumCPU(),
		entity: make([]int, len(events)), deciding: make([]bool, len(events))}
	// The reference: each window classified offline, and the point at
	// which a cursor on the reference model first gives a final answer
	// (the serving layer's finality rule), which is the event whose
	// Submit the decision latency runs from.
	decideAt := make([]int, stream.Len())
	for i, in := range stream.Instances {
		l, c := sm.ref.Classify(in)
		e.want = append(e.want, decision{l, c})
		cur, _ := core.NewCursor(sm.ref, in)
		for n := 1; n <= in.Length(); n++ {
			_, consumed, done := cur.Advance(n)
			if done || consumed < n || n == in.Length() {
				decideAt[i] = n
				break
			}
		}
	}
	for j, ev := range events {
		i, err := strconv.Atoi(strings.TrimPrefix(ev.Entity, "vessel-"))
		if err != nil || i < 0 || i >= stream.Len() {
			return nil, fmt.Errorf("event %d: unexpected entity %q", j, ev.Entity)
		}
		e.entity[j] = i
		e.deciding[j] = ev.T+1 == decideAt[i]
	}
	// The entities' clock: each round is two TTLs after the last.
	e.clock = func() time.Time {
		return time.Unix(0, 0).Add(time.Duration(atomic.LoadInt64(&e.rounds)) * 2 * ingestTTL)
	}
	e.srv = serve.New(serve.Config{Obs: metricsCollector()})
	if err := e.srv.AddModel(ingestModel, sm.serving, sm.meta); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *ingestEnv) layers() map[string]float64 { return e.sm.layers() }

func (e *ingestEnv) close() { e.srv.Close() }

// run replays the stream into one pipeline until the time is up. Between
// rounds the fake clock moves past the entity TTL and the idle sweep
// evicts every entity, so each round opens its windows afresh and the
// pipeline's memory stays bounded however long the replay runs.
func (e *ingestEnv) run(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	n := e.stream.Len()
	submitAt := make([]int64, n) // ns since start, per entity, of its deciding Submit
	latency := make([]float64, n)
	decided := make([]int32, n)
	var wrong atomic.Int64
	var firstWrong atomic.Value
	start := time.Now()
	p, err := ingest.New(ingest.Config{
		Registry: e.srv, Model: ingestModel, Shards: e.shards,
		EntityTTL: ingestTTL, Clock: e.clock,
		OnDecision: func(dec ingest.Decision) {
			i, _ := strconv.Atoi(strings.TrimPrefix(dec.Entity, "vessel-"))
			now := time.Since(start).Nanoseconds()
			latency[i] = float64(now-submitAt[i]) / 1e6
			decided[i]++
			if got := (decision{dec.Label, dec.Consumed}); got != e.want[i] {
				if wrong.Add(1) == 1 {
					firstWrong.Store(fmt.Sprintf("entity %s: decided %+v, offline %+v", dec.Entity, got, e.want[i]))
				}
			}
			if tr.active() {
				tr.mu.Lock()
				tr.recordLocked(eventID(atomic.LoadInt64(&e.rounds), i), "ingest.decision",
					start.Add(time.Duration(submitAt[i])), start.Add(time.Duration(now)))
				tr.mu.Unlock()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	before := p.Stats()
	var windows []window
	var selfMS []float64
	rounds := 0
	runtime.GC()
	phaseStart := time.Now()
	for ; rounds == 0 || anotherRound(d, time.Since(phaseStart), rounds); rounds++ {
		m := markNow(phaseStart, 0)
		clear(decided)
		var advance0 float64
		if tr.active() {
			advance0 = tr.sum("core.advance_us")
		}
		roundStart := time.Now()
		round := atomic.LoadInt64(&e.rounds)
		for j := range e.events {
			ev := e.events[j]
			i := e.entity[j]
			if e.deciding[j] {
				submitAt[i] = time.Since(start).Nanoseconds()
			}
			if !tr.active() {
				if err := p.Submit(ev); err != nil {
					return nil, err
				}
				continue
			}
			id := eventID(round, i)
			tr.expect(pointKey(ev.T+1, ev.Values), id)
			t0 := time.Now()
			err := p.Submit(ev)
			t1 := time.Now()
			tr.mu.Lock()
			tr.recordLocked(id, "ingest.submit", t0, t1)
			tr.sampleLocked("ingest.submit_us", us(t1.Sub(t0)))
			tr.mu.Unlock()
			if err != nil {
				return nil, err
			}
		}
		p.Flush()
		wall := time.Since(roundStart)
		atomic.AddInt64(&e.rounds, 1)
		p.EvictIdle()
		for i := range decided {
			if decided[i] != 1 {
				o.problem("round %d: entity %d decided %d times", rounds, i, decided[i])
				break
			}
		}
		end := markNow(phaseStart, 0)
		windows = append(windows, window{dur: end.at - m.at, ops: len(e.events),
			cpu: end.cpu - m.cpu, alloc: end.alloc - m.alloc, lat: append([]float64(nil), latency...)})
		if tr.active() {
			tr.forgetAll()
			selfMS = append(selfMS, float64(e.shards)*ms(wall)-(tr.sum("core.advance_us")-advance0)/1e3)
		}
	}
	o.wall = time.Since(phaseStart)
	// Each round replays the same stream, so each is one window.
	o.fig = reduce(windows)
	if w := wrong.Load(); w > 0 {
		o.problem("%d decisions differ from the offline classification; first: %v", w, firstWrong.Load())
	}
	// The counters must match what the replayed stream implies: every
	// event accepted, one window and one decision per entity per round,
	// every entity created and evicted once per round.
	st := p.Stats()
	perRound := int64(n)
	want := ingest.Stats{
		Events:          before.Events + int64(rounds)*int64(len(e.events)),
		EntitiesCreated: before.EntitiesCreated + int64(rounds)*perRound,
		EntitiesEvicted: before.EntitiesEvicted + int64(rounds)*perRound,
		Windows:         before.Windows + int64(rounds)*perRound,
		Decisions:       before.Decisions + int64(rounds)*perRound,
	}
	if st != want {
		o.problem("pipeline stats %+v, the replayed stream implies %+v", st, want)
	}
	o.attempted = rounds * len(e.events)
	o.failed = int(st.Late + st.Malformed + st.Shed)
	if tr.active() {
		o.layers["ingest.self_ms"] = median(selfMS)
		// Per round, so they count the layer's work, not the machine's speed.
		o.layers["ingest.windows"] = float64(st.Windows-before.Windows) / float64(rounds)
		o.layers["ingest.decisions"] = float64(st.Decisions-before.Decisions) / float64(rounds)
		o.layers["ingest.entities_evicted"] = float64(st.EntitiesEvicted-before.EntitiesEvicted) / float64(rounds)
	}
	return o, nil
}

// eventID names one entity window of one round in the trace.
func eventID(round int64, entity int) obs.TraceID {
	var id obs.TraceID
	binary.BigEndian.PutUint64(id[:8], uint64(round))
	binary.BigEndian.PutUint64(id[8:], uint64(entity))
	return id
}
