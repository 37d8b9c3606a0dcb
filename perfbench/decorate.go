package main

import (
	"time"

	"github.com/goetsc/goetsc/internal/core"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// callKind names the public entry point a decorated classifier observed.
type callKind uint8

const (
	callFit callKind = iota
	callClassify
	callAdvance
	callBatch
)

// call is one observed call into a decorated classifier or one of its
// cursors. start and end are zero unless the observer asked for timing.
type call struct {
	kind       callKind
	in         ts.Instance // classify and advance: the instance read
	upto       int         // advance: the prefix requested
	start, end time.Time
	label      int   // classify and advance
	consumed   int   // classify and advance
	labels     []int // batch
	used       []int // batch
}

// observer receives every call a decorated classifier makes. It may be
// called from many goroutines at once. timed reports whether calls
// should carry start and end stamps; it is read on every call, so a
// traced run can switch timing on and off without rebuilding models.
type observer interface {
	timed() bool
	observe(c call)
}

// decorated forwards every EarlyClassifier method to inner and reports
// each call to obs. The optional interfaces are added by decorate, one
// small part type each, so a decorated model has exactly the method set
// of the model it wraps.
type decorated struct {
	inner core.EarlyClassifier
	obs   observer
}

func (d *decorated) now() time.Time {
	if d.obs.timed() {
		return time.Now()
	}
	return time.Time{}
}

func (d *decorated) Name() string { return d.inner.Name() }

func (d *decorated) Fit(train *ts.Dataset) error {
	start := d.now()
	err := d.inner.Fit(train)
	d.obs.observe(call{kind: callFit, start: start, end: d.now()})
	return err
}

func (d *decorated) Classify(in ts.Instance) (int, int) {
	start := d.now()
	label, consumed := d.inner.Classify(in)
	d.obs.observe(call{kind: callClassify, in: in, start: start, end: d.now(), label: label, consumed: consumed})
	return label, consumed
}

// Part types: each holds the decorated core without embedding it, so
// composing several parts never makes Name, Fit or Classify ambiguous.
type (
	incrementalPart  struct{ d *decorated }
	batchPart        struct{ d *decorated }
	multivariatePart struct{ d *decorated }
	stoppablePart    struct{ d *decorated }
	float32Part      struct{ d *decorated }
)

// Begin returns nil exactly when the inner model does, so callers fall
// back to the same path they would take undecorated.
func (p incrementalPart) Begin(in ts.Instance) core.Cursor {
	cur := p.d.inner.(core.IncrementalClassifier).Begin(in)
	if cur == nil {
		return nil
	}
	return &decoratedCursor{cur: cur, d: p.d, in: in}
}

func (p batchPart) ClassifyBatch(instances []ts.Instance, labels, consumed []int) {
	start := p.d.now()
	p.d.inner.(core.BatchClassifier).ClassifyBatch(instances, labels, consumed)
	p.d.obs.observe(call{kind: callBatch, start: start, end: p.d.now(), labels: labels, used: consumed})
}

func (p multivariatePart) Multivariate() bool {
	return p.d.inner.(core.MultivariateCapable).Multivariate()
}

func (p stoppablePart) Stop() { p.d.inner.(core.Stoppable).Stop() }

func (p float32Part) SetFloat32(on bool) { p.d.inner.(core.Float32Switchable).SetFloat32(on) }

// decoratedCursor reports every Advance of a cursor the inner model began.
type decoratedCursor struct {
	cur core.Cursor
	d   *decorated
	in  ts.Instance
}

func (c *decoratedCursor) Advance(upto int) (int, int, bool) {
	start := c.d.now()
	label, consumed, done := c.cur.Advance(upto)
	c.d.obs.observe(call{kind: callAdvance, in: c.in, upto: upto, start: start, end: c.d.now(),
		label: label, consumed: consumed})
	return label, consumed, done
}

// Capability bits of the optional interfaces a model may implement.
const (
	capIncremental = 1 << iota
	capBatch
	capMultivariate
	capStoppable
	capFloat32
)

// capabilities reports which optional interfaces algo implements.
func capabilities(algo core.EarlyClassifier) int {
	caps := 0
	if _, ok := algo.(core.IncrementalClassifier); ok {
		caps |= capIncremental
	}
	if _, ok := algo.(core.BatchClassifier); ok {
		caps |= capBatch
	}
	if _, ok := algo.(core.MultivariateCapable); ok {
		caps |= capMultivariate
	}
	if _, ok := algo.(core.Stoppable); ok {
		caps |= capStoppable
	}
	if _, ok := algo.(core.Float32Switchable); ok {
		caps |= capFloat32
	}
	return caps
}

// decorate wraps algo so that obs sees every call, keeping exactly the
// optional interfaces algo implements: a traced model takes the same
// code paths as the plain one, and no caller falls back to
// core.NewCursor's generic cursor because the decorator hid Begin.
func decorate(algo core.EarlyClassifier, obs observer) core.EarlyClassifier {
	return compose(&decorated{inner: algo, obs: obs}, capabilities(algo))
}

// compose gives d the methods of the optional interfaces in caps, which
// d.inner must implement.
func compose(d *decorated, caps int) core.EarlyClassifier {
	i, b, m := incrementalPart{d}, batchPart{d}, multivariatePart{d}
	s, f := stoppablePart{d}, float32Part{d}
	const (
		I, B, M, S, F = capIncremental, capBatch, capMultivariate, capStoppable, capFloat32
	)
	switch caps {
	case 0:
		return d
	case I:
		return struct {
			*decorated
			incrementalPart
		}{d, i}
	case B:
		return struct {
			*decorated
			batchPart
		}{d, b}
	case I | B:
		return struct {
			*decorated
			incrementalPart
			batchPart
		}{d, i, b}
	case M:
		return struct {
			*decorated
			multivariatePart
		}{d, m}
	case I | M:
		return struct {
			*decorated
			incrementalPart
			multivariatePart
		}{d, i, m}
	case B | M:
		return struct {
			*decorated
			batchPart
			multivariatePart
		}{d, b, m}
	case I | B | M:
		return struct {
			*decorated
			incrementalPart
			batchPart
			multivariatePart
		}{d, i, b, m}
	case S:
		return struct {
			*decorated
			stoppablePart
		}{d, s}
	case I | S:
		return struct {
			*decorated
			incrementalPart
			stoppablePart
		}{d, i, s}
	case B | S:
		return struct {
			*decorated
			batchPart
			stoppablePart
		}{d, b, s}
	case I | B | S:
		return struct {
			*decorated
			incrementalPart
			batchPart
			stoppablePart
		}{d, i, b, s}
	case M | S:
		return struct {
			*decorated
			multivariatePart
			stoppablePart
		}{d, m, s}
	case I | M | S:
		return struct {
			*decorated
			incrementalPart
			multivariatePart
			stoppablePart
		}{d, i, m, s}
	case B | M | S:
		return struct {
			*decorated
			batchPart
			multivariatePart
			stoppablePart
		}{d, b, m, s}
	case I | B | M | S:
		return struct {
			*decorated
			incrementalPart
			batchPart
			multivariatePart
			stoppablePart
		}{d, i, b, m, s}
	case F:
		return struct {
			*decorated
			float32Part
		}{d, f}
	case I | F:
		return struct {
			*decorated
			incrementalPart
			float32Part
		}{d, i, f}
	case B | F:
		return struct {
			*decorated
			batchPart
			float32Part
		}{d, b, f}
	case I | B | F:
		return struct {
			*decorated
			incrementalPart
			batchPart
			float32Part
		}{d, i, b, f}
	case M | F:
		return struct {
			*decorated
			multivariatePart
			float32Part
		}{d, m, f}
	case I | M | F:
		return struct {
			*decorated
			incrementalPart
			multivariatePart
			float32Part
		}{d, i, m, f}
	case B | M | F:
		return struct {
			*decorated
			batchPart
			multivariatePart
			float32Part
		}{d, b, m, f}
	case I | B | M | F:
		return struct {
			*decorated
			incrementalPart
			batchPart
			multivariatePart
			float32Part
		}{d, i, b, m, f}
	case S | F:
		return struct {
			*decorated
			stoppablePart
			float32Part
		}{d, s, f}
	case I | S | F:
		return struct {
			*decorated
			incrementalPart
			stoppablePart
			float32Part
		}{d, i, s, f}
	case B | S | F:
		return struct {
			*decorated
			batchPart
			stoppablePart
			float32Part
		}{d, b, s, f}
	case I | B | S | F:
		return struct {
			*decorated
			incrementalPart
			batchPart
			stoppablePart
			float32Part
		}{d, i, b, s, f}
	case M | S | F:
		return struct {
			*decorated
			multivariatePart
			stoppablePart
			float32Part
		}{d, m, s, f}
	case I | M | S | F:
		return struct {
			*decorated
			incrementalPart
			multivariatePart
			stoppablePart
			float32Part
		}{d, i, m, s, f}
	case B | M | S | F:
		return struct {
			*decorated
			batchPart
			multivariatePart
			stoppablePart
			float32Part
		}{d, b, m, s, f}
	default: // I | B | M | S | F
		return struct {
			*decorated
			incrementalPart
			batchPart
			multivariatePart
			stoppablePart
			float32Part
		}{d, i, b, m, s, f}
	}
}
