package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/goetsc/goetsc/internal/bench"
	"github.com/goetsc/goetsc/internal/core"
	"github.com/goetsc/goetsc/internal/datasets"
	"github.com/goetsc/goetsc/internal/obs"
)

// The paper-matrix inputs: one dataset from each of the Common,
// Imbalanced/Multivariate and Large/Unstable categories, all eight
// algorithms, fast preset. At this scale every dataset sits at its
// generator's minimum height.
//
// The matrix is the paper's fixed protocol on one draw, matrixSeed, and
// --seed does not change it: the median fold time moves by about a tenth
// from one draw to another, more than the run-to-run noise, and the
// decision digest covers this draw.
var matrixDatasets = []string{"PowerCons", "Biological", "SharePriceIncrease"}

const (
	matrixScale = 0.02
	matrixFolds = 3
	matrixSeed  = 1
)

//go:embed digest.json
var digestJSON []byte

// digestFile is the stored decision digest: per cell, a hash of every
// decision the cell's folds made plus its metrics.
type digestFile struct {
	Note     string            `json:"note"`
	Datasets []string          `json:"datasets"`
	Scale    float64           `json:"scale"`
	Folds    int               `json:"folds"`
	Seed     int64             `json:"seed"`
	Cells    map[string]string `json:"cells"` // "dataset/algorithm" → hash
}

// foldRecorder observes every classifier a fold creates: the decisions
// they report (for the digest) and, when traced, their fit and score time.
type foldRecorder struct {
	algorithm string
	timing    func() bool

	mu        sync.Mutex
	decisions []int // label, consumed pairs in call order
	fit       time.Duration
	score     time.Duration
}

func (r *foldRecorder) timed() bool { return r.timing() }

func (r *foldRecorder) observe(c call) {
	d := c.end.Sub(c.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch c.kind {
	case callFit:
		r.fit += d
	case callClassify, callAdvance:
		r.decisions = append(r.decisions, c.label, c.consumed)
		r.score += d
	case callBatch:
		for i := range c.labels {
			r.decisions = append(r.decisions, c.labels[i], c.used[i])
		}
		r.score += d
	}
}

// matrixRun is one bench.Run of the matrix with its fold recorders.
type matrixRun struct {
	res     *bench.Results
	journal bytes.Buffer

	mu    sync.Mutex
	folds map[string]*foldRecorder // "dataset/algorithm/attempt/fold"
}

// runMatrix evaluates the matrix once with the given worker count.
func runMatrix(workers int, timing func() bool) (*matrixRun, error) {
	mr := &matrixRun{folds: map[string]*foldRecorder{}}
	cfg := bench.RunConfig{
		Datasets: matrixDatasets,
		Scale:    matrixScale,
		Folds:    matrixFolds,
		Seed:     matrixSeed,
		Preset:   bench.Fast,
		Workers:  workers,
		Obs:      obs.New(obs.Options{Journal: obs.NewJournal(&mr.journal)}),
		WrapFoldFactory: func(dataset, algorithm string, attempt, fold int, f core.Factory) core.Factory {
			rec := &foldRecorder{algorithm: algorithm, timing: timing}
			mr.mu.Lock()
			mr.folds[fmt.Sprintf("%s/%s/%d/%d", dataset, algorithm, attempt, fold)] = rec
			mr.mu.Unlock()
			return func() core.EarlyClassifier { return decorate(f(), rec) }
		},
	}
	res, err := bench.Run(cfg)
	if err != nil {
		return nil, err
	}
	mr.res = res
	return mr, nil
}

// digests hashes each cell's decisions, fold by fold, with its metrics.
func (mr *matrixRun) digests() map[string]string {
	out := map[string]string{}
	for _, c := range mr.res.Cells {
		h := sha256.New()
		var b [binary.MaxVarintLen64]byte
		for fold := 0; fold < matrixFolds; fold++ {
			rec := mr.folds[fmt.Sprintf("%s/%s/%d/%d", c.Dataset, c.Algorithm, c.Attempts-1, fold)]
			if rec == nil {
				h.Write([]byte("missing"))
				continue
			}
			for _, v := range rec.decisions {
				h.Write(b[:binary.PutVarint(b[:], int64(v))])
			}
			h.Write([]byte{'|'})
		}
		for _, v := range []float64{c.Result.Accuracy, c.Result.MacroF1, c.Result.Earliness, c.Result.HarmonicMean} {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(v))
			h.Write(b[:8])
		}
		out[c.Dataset+"/"+c.Algorithm] = hex.EncodeToString(h.Sum(nil)[:12])
	}
	return out
}

// foldDurations reads the fold spans the program journaled, in ms.
func (mr *matrixRun) foldDurations() ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(bytes.NewReader(mr.journal.Bytes()))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var rec struct {
			Type  string  `json:"type"`
			Name  string  `json:"name"`
			DurMS float64 `json:"dur_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		if rec.Type == "span" && rec.Name == "fold" {
			out = append(out, rec.DurMS)
		}
	}
	return out, sc.Err()
}

// check verifies the run against rules computed apart from the
// program's output, and against the stored digest.
func (mr *matrixRun) check(o *outcome, want map[string]string) {
	for _, c := range mr.res.Cells {
		key := c.Dataset + "/" + c.Algorithm
		if c.Status != bench.StatusOK {
			o.problem("%s: status %q: %s", key, c.Status, c.Err)
			continue
		}
		acc, earl := c.Result.Accuracy, c.Result.Earliness
		hm := 0.0
		if acc+1-earl > 0 {
			hm = 2 * acc * (1 - earl) / (acc + 1 - earl)
		}
		if math.Abs(hm-c.Result.HarmonicMean) > 1e-12 {
			o.problem("%s: harmonic mean %v, recomputed %v", key, c.Result.HarmonicMean, hm)
		}
		if !(earl > 0 && earl <= 1) {
			o.problem("%s: earliness %v outside (0, 1]", key, earl)
		}
		if !(acc >= 0 && acc <= 1) {
			o.problem("%s: accuracy %v outside [0, 1]", key, acc)
		}
	}
	got := mr.digests()
	if len(want) != len(mr.res.Cells) {
		o.problem("digest holds %d cells, the run has %d", len(want), len(mr.res.Cells))
	}
	for key, h := range want {
		if got[key] != h {
			o.problem("%s: decision digest %s, stored %s", key, got[key], h)
		}
	}
	for _, name := range matrixDatasets {
		if err := checkFlags(name, mr.res.Profiles[name]); err != nil {
			o.problem("bench profile: %v", err)
		}
	}
}

// checkFlags compares a profile's category flags with Table 3.
func checkFlags(name string, p core.Profile) error {
	spec, err := datasets.ByName(name)
	if err != nil {
		return err
	}
	want := map[core.Category]bool{}
	for _, c := range spec.PaperCategories {
		want[c] = true
	}
	for _, c := range core.AllCategories {
		if p.In(c) != want[c] {
			return fmt.Errorf("%s: flag %s is %v, Table 3 says %v", name, c, p.In(c), want[c])
		}
	}
	return nil
}

// matrixEnv is the paper-matrix workload: whole matrix rounds until the
// run's time is up.
type matrixEnv struct {
	workers    int
	want       map[string]string
	generateMS float64
}

func setupMatrix(_ int64, _ *tracer) (env, error) {
	var stored digestFile
	if err := json.Unmarshal(digestJSON, &stored); err != nil {
		return nil, fmt.Errorf("digest: %w", err)
	}
	if stored.Seed != matrixSeed || stored.Scale != matrixScale || stored.Folds != matrixFolds {
		return nil, fmt.Errorf("digest.json is for another matrix; regenerate it")
	}
	e := &matrixEnv{workers: runtime.NumCPU(), want: stored.Cells}
	// The set-up generates the inputs and checks them against Table 3:
	// the scaled datasets the matrix evaluates and the paper-size ones
	// the category flags come from.
	start := time.Now()
	for _, name := range matrixDatasets {
		spec, err := datasets.ByName(name)
		if err != nil {
			return nil, err
		}
		d := spec.Generate(matrixScale, matrixSeed)
		if err := d.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := checkFlags(name, core.Categorize(spec.Generate(1, matrixSeed))); err != nil {
			return nil, err
		}
	}
	e.generateMS = float64(time.Since(start)) / 1e6
	return e, nil
}

func (e *matrixEnv) layers() map[string]float64 {
	return map[string]float64{"datasets.generate_ms": e.generateMS}
}

func (e *matrixEnv) close() {}

func (e *matrixEnv) run(d time.Duration, tr *tracer) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	var rounds []window
	var idle []float64
	fits, scores := map[string][]float64{}, map[string][]float64{}
	start := time.Now()
	// At least two rounds: how the pool schedules the long S-MLSTM folds
	// moves one round's wall time by a tenth from run to run.
	for len(rounds) < 2 || anotherRound(d, time.Since(start), len(rounds)) {
		m := markNow(start, 0)
		mr, err := runMatrix(e.workers, tr.active)
		end := markNow(start, 0)
		if err != nil {
			return nil, err
		}
		durs, err := mr.foldDurations()
		if err != nil {
			return nil, err
		}
		mr.check(o, e.want)
		o.attempted += len(mr.res.Cells) * matrixFolds
		for _, c := range mr.res.Cells {
			if c.Status != bench.StatusOK {
				o.failed += matrixFolds
			}
		}
		rounds = append(rounds, window{dur: end.at - m.at, ops: len(durs),
			cpu: end.cpu - m.cpu, alloc: end.alloc - m.alloc, lat: durs})
		if tr.active() {
			// Core time the round left unused: folds overlap beyond the
			// worker count (a pool caller runs work too), so the sum of
			// fold spans would overstate the busy time.
			idle = append(idle, float64(e.workers)*ms(end.at-m.at)-ms(end.cpu-m.cpu))
			for _, rec := range mr.folds {
				fits[rec.algorithm] = append(fits[rec.algorithm], ms(rec.fit))
				scores[rec.algorithm] = append(scores[rec.algorithm], ms(rec.score))
			}
		}
	}
	o.wall = time.Since(start)
	// Each round evaluates the same folds, so each is one window.
	o.fig = reduce(rounds)
	if len(idle) > 0 {
		o.layers["bench.idle_ms"] = median(idle)
		for _, a := range algorithms {
			o.layers["core.fit_ms."+a] = median(fits[a])
			o.layers["core.score_ms."+a] = median(scores[a])
		}
	}
	return o, nil
}

// regenerateDigest rebuilds digest.json from the serial engine
// (Workers: 1), so that every benchmark run, which uses all cores, also
// checks that the decisions do not depend on the worker count. Run it
// only for a change that is meant to alter decisions.
func regenerateDigest(args []string) error {
	fs := flag.NewFlagSet("digest", flag.ExitOnError)
	out := fs.String("out", "perfbench/digest.json", "file to write")
	fs.Parse(args)
	mr, err := runMatrix(1, func() bool { return false })
	if err != nil {
		return err
	}
	for _, c := range mr.res.Cells {
		if c.Status != bench.StatusOK {
			return fmt.Errorf("%s/%s: status %q: %s", c.Dataset, c.Algorithm, c.Status, c.Err)
		}
	}
	df := digestFile{
		Note: "Decision digest of the paper-matrix workload, one hash per cell. " +
			"Rebuild with: bash perfbench/run.sh digest",
		Datasets: matrixDatasets, Scale: matrixScale, Folds: matrixFolds, Seed: matrixSeed,
		Cells: mr.digests(),
	}
	b, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(b, '\n'), 0o644)
}
