// Command perfbench is goetsc's benchmark: one command that drives the
// program through its public Go API on four workloads, checks that every
// output is correct, and prints every metric by name and unit. See
// README.md for the workloads, the metrics and how to read them.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash perfbench/run.sh steady --workload <name> --runs 10 --seconds 10
//	bash perfbench/run.sh digest
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef is one reported metric: its name, unit and direction.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists the metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// algorithms are the paper's eight, in its figure order; the matrix
// reports fit and score time for each.
var algorithms = []string{"ECEC", "ECO-K", "ECTS", "EDSC", "S-MINI", "S-MLSTM", "S-WEASEL", "TEASER"}

// perLayer lists the metrics every traced run reports. A layer a
// workload never passes through reads 0 on that workload.
func perLayer() []metricDef {
	defs := []metricDef{{"datasets.generate_ms", "ms", "lower"}}
	for _, a := range algorithms {
		defs = append(defs, metricDef{"core.fit_ms." + a, "ms", "lower"})
	}
	for _, a := range algorithms {
		defs = append(defs, metricDef{"core.score_ms." + a, "ms", "lower"})
	}
	return append(defs,
		metricDef{"bench.idle_ms", "ms", "lower"},
		metricDef{"core.classify_us", "us", "lower"},
		metricDef{"core.advance_us", "us", "lower"},
		metricDef{"serve.handler_us", "us", "lower"},
		metricDef{"serve.queue_wait_us", "us", "lower"},
		metricDef{"serve.request_bytes", "B", "lower"},
		metricDef{"serve.response_bytes", "B", "lower"},
		metricDef{"serve.create_us", "us", "lower"},
		metricDef{"serve.close_us", "us", "lower"},
		metricDef{"serve.points_per_session", "count", "lower"},
		metricDef{"fleet.route_us", "us", "lower"},
		metricDef{"transport.rtt_us", "us", "lower"},
		metricDef{"persist.artifact_bytes", "B", "lower"},
		metricDef{"persist.load_ms", "ms", "lower"},
		metricDef{"ingest.submit_us", "us", "lower"},
		metricDef{"ingest.self_ms", "ms", "lower"},
		metricDef{"ingest.windows", "count", "higher"},
		metricDef{"ingest.decisions", "count", "higher"},
		metricDef{"ingest.entities_evicted", "count", "higher"},
		metricDef{"trace.overhead_us", "us", "lower"},
	)
}

// env is one prepared workload: inputs generated, models trained and
// served, reference answers computed.
type env interface {
	// run drives the workload for about d and checks every output. tr is
	// non-nil in traced runs; it may be disabled.
	run(d time.Duration, tr *tracer) (*outcome, error)
	// layers reports per-layer figures of the set-up itself.
	layers() map[string]float64
	close()
}

// outcome is what one timed phase measured and found.
type outcome struct {
	attempted, failed int
	fig               figures
	wall              time.Duration      // of the measured phase
	problems          []string           // failed correctness checks
	layers            map[string]float64 // per-layer figures the phase adds
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload builds one env from a seed. traced envs carry the decorators
// and handler wrappers of the traced run, switched off until enabled.
// Why each workload exists is in BENCHMARK.json and README.md.
type workload struct {
	name  string
	setup func(seed int64, tr *tracer) (env, error)
}

var workloads = []workload{
	{"paper-matrix", setupMatrix},
	{"oneshot-classify", setupOneshot},
	{"session-stream", setupSessions},
	{"maritime-ingest", setupIngest},
}

// A run times its set-ups in batches: a batch sets the workload up back
// to back until it has taken setupBatch (a single set-up when one takes
// longer), and its sample is the time per set-up. setup_s is the median
// of the samples: at least setupMinBatches, more while they have taken
// less than setupBudget in all. A cheap set-up thus still gives samples
// long enough not to hinge on a garbage collection or a scheduling blip.
const (
	setupMinBatches = 3
	setupBatch      = 200 * time.Millisecond
	setupBudget     = 2 * time.Second
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "digest":
			exitOn(regenerateDigest(os.Args[2:]))
			return
		case "steady":
			exitOn(steady(os.Args[2:]))
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: paper-matrix, oneshot-classify, session-stream or maritime-ingest")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "trace file of a traced run (default .bench_build/trace-<workload>.jsonl)")
	fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 {
		exitOn(fmt.Errorf("--trace must be 0 or 1"))
	}
	out := *traceOut
	if out == "" {
		out = filepath.Join(".bench_build", "trace-"+*name+".jsonl")
	}
	res, err := runWorkload(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, out)
	exitOn(err)
	b, err := json.Marshal(res)
	exitOn(err)
	fmt.Println(string(b))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runWorkload sets the workload up, measures it and assembles the
// printed result. Reference figures go to standard output as one line
// ahead of the result.
func runWorkload(name string, seed int64, d time.Duration, traced bool, traceOut string) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var e env
	var setups []float64
	setupLayers := map[string][]float64{}
	begun := time.Now()
	for len(setups) < setupMinBatches || time.Since(begun) < setupBudget {
		if e != nil {
			e.close()
		}
		runtime.GC() // each batch starts from the same heap
		var batch []env
		start := time.Now()
		for len(batch) == 0 || time.Since(start) < setupBatch {
			if e, err = w.setup(seed, tr); err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", name, err)
			}
			batch = append(batch, e)
		}
		setups = append(setups, time.Since(start).Seconds()/float64(len(batch)))
		for _, b := range batch[:len(batch)-1] {
			b.close()
		}
		for k, v := range e.layers() {
			setupLayers[k] = append(setupLayers[k], v)
		}
	}
	defer e.close()

	res := &result{Metrics: map[string]metricValue{}}
	var o *outcome
	ref := map[string]any{
		"workload": name, "seed": seed, "num_cpu": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go_version": runtime.Version(),
		"setup_s_batches": setups,
	}
	if !traced {
		if o, err = e.run(d, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		vals := map[string]float64{
			"setup_s":          median(setups),
			"throughput_per_s": o.fig.throughput,
			"latency_ms":       o.fig.lat.Median,
			"latency_tail_ms":  o.fig.lat.Tail,
			"cpu_ms_per_op":    o.fig.cpuPerOp,
			"alloc_kb_per_op":  o.fig.allocPerOp,
			"peak_rss_mb":      peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
	} else {
		// Untraced first, on a set-up without probes, then traced: the
		// difference in median latency is what the probes cost. The
		// matrix records every decision for its digest in both.
		plainEnv, err := w.setup(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		plain, err := plainEnv.run(d/2, nil)
		plainEnv.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		tr.enable(true)
		o, err = e.run(d/2, tr)
		tr.enable(false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		o.problems = append(o.problems, plain.problems...)
		o.attempted += plain.attempted
		o.failed += plain.failed
		vals := map[string]float64{}
		for k, v := range setupLayers {
			vals[k] = median(v)
		}
		for k, v := range o.layers {
			vals[k] = v
		}
		for _, layer := range []string{"core.classify_us", "core.advance_us", "serve.handler_us",
			"serve.create_us", "serve.close_us", "fleet.route_us", "transport.rtt_us", "ingest.submit_us"} {
			if tr.sampleCount(layer) > 0 {
				vals[layer] = tr.median(layer)
			}
		}
		vals["trace.overhead_us"] = (o.fig.lat.Median - plain.fig.lat.Median) * 1e3
		for _, m := range perLayer() {
			res.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
		}
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
		ref["trace_file"] = traceOut
		ref["untraced_latency_ms"] = plain.fig.lat.Median
	}
	ref["latency_samples"] = o.fig.lat.Samples
	ref["latency_tail_percentile"] = o.fig.lat.TailQ
	ref["latency_p99_ms"] = o.fig.lat.P99
	ref["latency_max_ms"] = o.fig.lat.Max
	ref["wall_s"] = o.wall.Seconds()
	b, err := json.Marshal(map[string]any{"reference": ref})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(b))

	res.Attempted, res.Failed = o.attempted, o.failed
	res.Correct = len(o.problems) == 0
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return res, nil
}
