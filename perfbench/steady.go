package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method).
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	n := len(data)
	if n < 2 {
		v := data[0]
		return v, v, v
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// steady runs one workload K times untraced, each with another seed,
// each in a fresh process as the benchmark is run, and prints every
// end-to-end metric's
// median, quartiles and spread ((Q3-Q1)/median) against its bound in
// BENCHMARK.json, and the share of failed operations per run.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs, seeds seed..seed+runs-1")
	seed := fs.Int64("seed", 1, "first seed")
	seconds := fs.Int("seconds", 10, "measured seconds per run")
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	fs.Parse(args)
	if _, err := findWorkload(*name); err != nil {
		return err
	}
	raw, err := os.ReadFile(*spec)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *spec, err)
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < *runs; r++ {
		s := *seed + int64(r)
		cmd := exec.Command(self, "--workload", *name, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		var last string
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				last = line
			}
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return fmt.Errorf("run with seed %d: last line %q: %w", s, last, err)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d (%.6f)\n", s, res.Correct,
			res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %14s %14s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, k := range names {
		q1, q2, q3 := quartiles(values[k])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound := "-"
		if b, ok := bounds[k]; ok {
			bound = fmt.Sprintf("%.3f", b)
		}
		fmt.Printf("%-28s %14.6g %14.6g %14.6g %8.4f %8s %s\n", k, q1, q2, q3, spread, bound, units[k])
	}
	return nil
}
