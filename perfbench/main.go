// Command perfbench is megate's repository benchmark: one program that runs a
// named workload against the real controller, TE database, agents and host
// stack, checks every output it produces, and prints each metric by name with
// its unit. The last line of standard output is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the run is
// traced (spans kept in memory and written at the end) and the metrics are
// the per-layer set. Run it through run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload te-churn --seed 1 --seconds 15 --trace 0
//
// README.md in this directory lists every metric, the layer it belongs to and
// the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Development and held-out seeds. Claims are developed on DevSeed and must
// also hold on HeldOutSeed, which no change may be tuned on.
const (
	DevSeed     = 1
	HeldOutSeed = 7187
)

// params is what the command line fixes for one run.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	// short shrinks every workload to a few-second smoke run with a fixed
	// operation count; the package tests use it.
	short bool
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int
	// failures keeps the first few failure messages for the log.
	failures []string
	e2e      map[string]float64
	layer    map[string]float64
	// samples records how many samples stand behind a percentile metric and
	// which percentile a tail metric reports.
	samples map[string]string
	// config is the workload's sizes and solver options for the header.
	config map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		e2e:     make(map[string]float64),
		layer:   make(map[string]float64),
		samples: make(map[string]string),
		config:  make(map[string]any),
	}
}

// fail counts one failed operation (an error or a failed correctness check).
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts a correctness check as an operation and its error as a
// failure.
func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.fail("%v", err)
	}
}

type workload struct {
	name string
	why  string
	run  func(p params, tr *tracer, o *outcome) error
}

var workloads = []workload{
	{"te-churn", "TWAN TE loop over seeded matrices: cold interval, demand drift on 10% of flows, seeded link failover", runTEChurn},
	{"agent-sync", "B4* with 2000 agents polling their home shard once a second on an open-loop slot schedule", runAgentSync},
	{"host-send", "eBPF host stack sending 64/1400/4000 B packets with and without SR paths", runHostSend},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run: te-churn, agent-sync or host-send")
	seed := flag.Int64("seed", DevSeed, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for result and trace files")
	commit := flag.String("commit", "unknown", "commit of the measured source")
	source := flag.String("source", "unknown", "digest of the measured source")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload te-churn|agent-sync|host-send --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := execute(w, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.header["commit"] = *commit
	res.header["source_sha256"] = *source
	if err := res.write(*outDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// result is one finished run: the header, the outcome and the spans.
type result struct {
	workload string
	p        params
	header   map[string]any
	out      *outcome
	tr       *tracer
}

// execute runs one workload and fills in the metrics every workload shares.
func execute(w workload, p params) (*result, error) {
	var tr *tracer
	if p.trace {
		tr = newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, p.seed, time.Now().UnixNano()))
	}
	out := newOutcome()
	start := time.Now()
	err := w.run(p, tr, out)
	wall := time.Since(start)
	if err != nil {
		return nil, err
	}
	out.layer["bench.trace_spans"] = float64(tr.count())
	if p.trace {
		out.layer["bench.traced_steady_ms"] = out.e2e["steady_ms"]
	}
	for _, m := range e2eMetrics {
		if _, ok := out.e2e[m.name]; !ok {
			return nil, fmt.Errorf("workload did not measure %s", m.name)
		}
	}
	for _, m := range layerMetrics {
		if _, ok := out.layer[m.name]; !ok {
			out.layer[m.name] = 0 // layer not exercised by this workload
		}
	}
	header := map[string]any{
		"workload":     w.name,
		"why":          w.why,
		"seed":         p.seed,
		"dev_seed":     DevSeed,
		"heldout_seed": HeldOutSeed,
		"seconds":      p.seconds,
		"trace":        p.trace,
		"short":        p.short,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go_version":   runtime.Version(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"config":       out.config,
		"samples":      out.samples,
		"wall_s":       wall.Seconds(),
	}
	return &result{workload: w.name, p: p, header: header, out: out, tr: tr}, nil
}

// metricsJSON returns the metric set the final line carries: end-to-end
// untraced, per-layer traced.
func (r *result) metricsJSON() map[string]map[string]any {
	defs, vals := e2eMetrics, r.out.e2e
	if r.p.trace {
		defs, vals = layerMetrics, r.out.layer
	}
	m := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		m[d.name] = map[string]any{"value": vals[d.name], "unit": d.unit}
	}
	return m
}

func (r *result) print(w *os.File) {
	hdr, _ := json.Marshal(r.header)
	fmt.Fprintf(w, "# header %s\n", hdr)
	for _, f := range r.out.failures {
		fmt.Fprintf(w, "# failed: %s\n", f)
	}
	defs, vals := e2eMetrics, r.out.e2e
	if r.p.trace {
		defs, vals = layerMetrics, r.out.layer
	}
	for _, d := range defs {
		note := ""
		if s, ok := r.out.samples[d.name]; ok {
			note = "  (" + s + ")"
		}
		fmt.Fprintf(w, "%-36s %16.6g %-6s %s%s\n", d.name, vals[d.name], d.unit, d.better, note)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.out.failed == 0,
		"attempted": r.out.attempted,
		"failed":    r.out.failed,
		"metrics":   r.metricsJSON(),
	})
	fmt.Fprintf(w, "%s\n", line)
}

// write stores the full result (header, both metric sets, sample counts) and,
// for a traced run, the spans.
func (r *result) write(dir string) error {
	tag := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.p.seed, boolInt(r.p.trace))
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return fmt.Errorf("create result dir: %w", err)
	}
	doc := map[string]any{
		"header":     r.header,
		"correct":    r.out.failed == 0,
		"attempted":  r.out.attempted,
		"failed":     r.out.failed,
		"failures":   r.out.failures,
		"end_to_end": r.out.e2e,
		"per_layer":  r.out.layer,
	}
	if err := writeJSON(filepath.Join(dir, "results", tag+".json"), doc); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Join(dir, "traces"), 0o755); err != nil {
		return fmt.Errorf("create trace dir: %w", err)
	}
	return r.tr.writeFile(filepath.Join(dir, "traces", tag+".jsonl"))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortedKeys is for deterministic iteration over small maps.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
