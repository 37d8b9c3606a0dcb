package main

import (
	"math/rand"
	"testing"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/datasets"
	ts "github.com/goetsc/goetsc/internal/timeseries"
)

// compareModels checks that plain and decorated (a decorated copy of an
// identically trained model) implement the same optional interfaces and
// answer identically on every decision path a workload takes: Classify,
// a cursor advanced in chunks (sessions, ingest), a one-shot cursor and
// core.Score (the matrix), which picks the batch or cursor path by
// interface.
func compareModels(t *testing.T, what string, plain, decorated core.EarlyClassifier, test *ts.Dataset) {
	t.Helper()
	if got, want := capabilities(decorated), capabilities(plain); got != want {
		t.Fatalf("%s: decorated capabilities %05b, plain %05b", what, got, want)
	}
	if core.IsMultivariate(decorated) != core.IsMultivariate(plain) {
		t.Fatalf("%s: Multivariate differs", what)
	}
	for i, in := range test.Instances {
		l1, c1 := plain.Classify(in)
		l2, c2 := decorated.Classify(in)
		if l1 != l2 || c1 != c2 {
			t.Fatalf("%s instance %d: Classify (%d,%d) decorated (%d,%d)", what, i, l1, c1, l2, c2)
		}
		p, pNative := core.NewCursor(plain, in)
		d, dNative := core.NewCursor(decorated, in)
		if pNative != dNative {
			t.Fatalf("%s: native cursor %v, decorated %v: the decorator changed the cursor path", what, pNative, dNative)
		}
		for n := 1; n <= in.Length(); n += 3 {
			pl, pc, pd := p.Advance(n)
			dl, dc, dd := d.Advance(n)
			if pl != dl || pc != dc || pd != dd {
				t.Fatalf("%s instance %d at %d: Advance (%d,%d,%v) decorated (%d,%d,%v)", what, i, n, pl, pc, pd, dl, dc, dd)
			}
		}
		l1, c1 = core.ClassifyIncremental(plain, in)
		l2, c2 = core.ClassifyIncremental(decorated, in)
		if l1 != l2 || c1 != c2 {
			t.Fatalf("%s instance %d: ClassifyIncremental (%d,%d) decorated (%d,%d)", what, i, l1, c1, l2, c2)
		}
	}
	a, b := core.Score(plain, test, test.NumClasses()), core.Score(decorated, test, test.NumClasses())
	if a.Accuracy != b.Accuracy || a.Earliness != b.Earliness || a.MacroF1 != b.MacroF1 {
		t.Fatalf("%s: Score %+v decorated %+v", what, a, b)
	}
}

// nopObserver records nothing but asks for timing, the traced setting.
type nopObserver struct{}

func (nopObserver) timed() bool    { return true }
func (nopObserver) observe(c call) {}

// TestDecoratedServedModels covers the three served workloads' models,
// trained the way their set-up trains them.
func TestDecoratedServedModels(t *testing.T) {
	for _, c := range []struct {
		dataset, algorithm string
		train, pool        float64
	}{
		{oneshotDataset, oneshotAlgorithm, oneshotTrain, oneshotPool},
		{sessionDataset, sessionAlgorithm, sessionTrain, sessionPool},
	} {
		sm, err := trainServed(c.dataset, c.algorithm, c.train, c.pool, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareModels(t, c.dataset+"/"+c.algorithm, sm.ref, decorate(sm.serving, nopObserver{}), sm.holdout)
	}
	sm, err := fitAndPersist(datasets.Maritime(ingestTrainScale, modelSeed), "ECTS", nil)
	if err != nil {
		t.Fatal(err)
	}
	compareModels(t, "Maritime/ECTS", sm.ref, decorate(sm.serving, nopObserver{}), datasets.Maritime(ingestStreamScale, 2))
}

// TestDecoratedMatrixModels trains every matrix algorithm twice on one
// fold of each matrix dataset, once through the decorator the way the
// benchmark's fold hook installs it, and compares the two.
func TestDecoratedMatrixModels(t *testing.T) {
	if testing.Short() {
		t.Skip("trains 48 models")
	}
	for _, name := range matrixDatasets {
		spec, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d := spec.Generate(matrixScale, 1)
		d.Interpolate()
		folds, err := ts.StratifiedKFold(d, matrixFolds, rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		train, test := d.Subset(folds[0].Train), d.Subset(folds[0].Test)
		for _, f := range bench.Algorithms(name, bench.Fast, 1) {
			plain := core.WrapForDataset(f.New, train)
			deco := core.WrapForDataset(func() core.EarlyClassifier { return decorate(f.New(), nopObserver{}) }, train)
			if err := plain.Fit(train); err != nil {
				t.Fatal(err)
			}
			if err := deco.Fit(train); err != nil {
				t.Fatal(err)
			}
			compareModels(t, name+"/"+f.Name, plain, deco, test)
		}
	}
}

// TestDecorateKeepsEveryInterfaceSet checks, for each of the 32 sets
// of optional interfaces, that compose builds a model with exactly that
// set and that decorating such a model keeps it.
func TestDecorateKeepsEveryInterfaceSet(t *testing.T) {
	for caps := 0; caps < 32; caps++ {
		m := compose(&decorated{inner: fake{}, obs: nopObserver{}}, caps)
		if got := capabilities(m); got != caps {
			t.Fatalf("compose(%05b) has %05b", caps, got)
		}
		if got := capabilities(decorate(m, nopObserver{})); got != caps {
			t.Errorf("decorated %05b has %05b", caps, got)
		}
	}
}

// fake is a classifier with every optional method.
type fake struct{}

func (fake) Name() string                              { return "fake" }
func (fake) Fit(*ts.Dataset) error                     { return nil }
func (fake) Classify(ts.Instance) (int, int)           { return 0, 1 }
func (fake) Begin(ts.Instance) core.Cursor             { return nil }
func (fake) ClassifyBatch(_ []ts.Instance, _, _ []int) {}
func (fake) Multivariate() bool                        { return false }
func (fake) Stop()                                     {}
func (fake) SetFloat32(bool)                           {}
