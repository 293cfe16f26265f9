// Command perfbench is segugio's end-to-end pipeline benchmark. It
// builds a seeded synthetic ISP with internal/trace, trains a forest
// detector on a training day, and drives segugiod's layers in process
// through their public functions: segb1 streams into a durable, sharded
// ingester (shed policy block), classify-all requests through the
// server's handler (forest + lbp detectors, activity log, abuse index,
// on-disk audit trail). It checks every output against computations made
// apart from the streaming path and prints one JSON result as its last
// line.
//
//	perfbench --workload restart-live --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// hostInfo is recorded with every result.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPU        string `json:"cpu"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Small      bool   `json:"small,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool
	workDir  string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var opts options
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "workload: ingest-backfill or restart-live")
	flag.Int64Var(&opts.seed, "seed", 1, "input seed")
	flag.Float64Var(&opts.seconds, "seconds", 10, "how long to run whole rounds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and reports the per-layer metrics")
	flag.BoolVar(&opts.small, "small", false, "small-scale inputs (the benchmark's own tests)")
	flag.StringVar(&opts.workDir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for state, inputs and traces")
	flag.Parse()
	opts.trace = traceFlag == 1
	res, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets up, measures, checks and reports one run. Everything but the
// final JSON line goes to w.
func run(opts options, w io.Writer) (*result, error) {
	sc := fullScale()
	if opts.small {
		sc = smallScale()
	}
	host := hostInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPU: cpuModel(), Workload: opts.workload, Seed: opts.seed, Small: opts.small,
	}
	hostLine, _ := json.Marshal(host) // plain fields: cannot fail
	fmt.Fprintf(w, "host %s\n", hostLine)

	isps := sc.Variants[opts.workload]
	if isps == 0 {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opts.workload, workloadNames)
	}
	dir := filepath.Join(opts.workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: the shared universe once, then each variant's population:
	// generate, train, encode, build the states the rounds open.
	// setup_s is the set-up of one ISP: the universe's plus the median
	// variant's, in CPU time.
	start := now()
	u, err := buildUniverse(sc)
	if err != nil {
		return nil, err
	}
	_, universeCPU := now().sub(start)
	var vs []variant
	var ins []*inputs
	var setup []float64
	for i := 0; i < isps; i++ {
		runtime.GC()
		vdir := filepath.Join(dir, fmt.Sprintf("variant%d", i))
		t0 := now()
		if err := os.MkdirAll(vdir, 0o755); err != nil {
			return nil, err
		}
		in, err := buildInputs(u, sc, opts.seed*int64(isps)+int64(i), vdir)
		if err != nil {
			return nil, err
		}
		pls, err := prepare(opts.workload, in, vdir)
		if err != nil {
			return nil, err
		}
		_, cpu := now().sub(t0)
		setup = append(setup, cpu.Seconds())
		vs = append(vs, variant{in: in, rounds: pls})
		ins = append(ins, in)
	}

	setupS := universeCPU.Seconds() + median(setup)
	wall, cpu := now().sub(start)
	fmt.Fprintf(w, "set-up %.1f s (%.1f CPU s): universe %.2f CPU s, ISPs %v CPU s\n", wall.Seconds(), cpu.Seconds(), universeCPU.Seconds(), setup)

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	rn := newRunner(vs, dir, tr, w)
	t0 := time.Now()
	if err := rn.run(opts.seconds); err != nil {
		return nil, err
	}
	res := rn.res
	fmt.Fprintf(w, "rounds took %.1f s\n", time.Since(t0).Seconds())

	t0 = time.Now()
	refs, err := buildRefs(ins, res.outputs)
	if err != nil {
		return nil, err
	}
	checks := runChecks(ins, res, refs)
	fmt.Fprintf(w, "checks took %.1f s\n", time.Since(t0).Seconds())
	correct := true
	for _, c := range checks {
		status := "PASS"
		if !c.ok() {
			status = "FAIL"
			correct = false
		}
		fmt.Fprintf(w, "check %s: %s over %d outputs\n", c.Name, status, c.Checked)
		for _, f := range c.Failures {
			fmt.Fprintf(w, "  %s\n", f)
		}
		for _, n := range c.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
	if res.stalled {
		fmt.Fprintf(w, "stall: the watchdog ended the run; %d handed-over events never applied\n", res.failed)
	}

	out := &result{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metric{}}
	if opts.trace {
		out.Metrics = layerMetrics(res, tr)
		path := filepath.Join(opts.workDir, fmt.Sprintf("trace-%s-seed%d.json", opts.workload, opts.seed))
		if err := tr.write(path, host); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
		tr.printTotals(w)
		// The end-to-end figures of the traced run, for the tracing
		// overhead: compare them with an untraced run of the same seed.
		e2e := endToEndMetrics(res, setupS)
		for _, name := range sortedNames(e2e) {
			fmt.Fprintf(w, "traced end-to-end %s = %s %s\n", name, strconv.FormatFloat(e2e[name].Value, 'g', -1, 64), e2e[name].Unit)
		}
	} else {
		out.Metrics = endToEndMetrics(res, setupS)
	}
	for _, name := range sortedNames(out.Metrics) {
		if m := out.Metrics[name]; math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no samples", name)
		}
	}
	for _, name := range sortedNames(out.Metrics) {
		m := out.Metrics[name]
		fmt.Fprintf(w, "metric %s = %s %s\n", name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	wm := wallMetrics(res)
	for _, name := range sortedNames(wm) {
		fmt.Fprintf(w, "wall clock: %s = %s %s\n", name, strconv.FormatFloat(wm[name].Value, 'g', -1, 64), wm[name].Unit)
	}
	fmt.Fprintf(w, "verdicts over %d passes, %d day closes, %d restarts\n", len(res.verdictMS.cpu), len(res.dayCloseS.cpu), len(res.restartS.cpu))
	fmt.Fprintf(w, "rounds %d, attempted %d operations, %d failed\n", len(res.rounds), res.attempted, res.failed)
	return out, nil
}

// endToEndMetrics are what a user of the daemon sees, in CPU time (see
// instant). The figures that are not a named percentile are
// interquartile means: a run's passes cost what their graphs' LBP
// convergence costs, so their samples cluster by graph, and a median
// jumps between clusters as a seed's mix of graphs shifts; the
// interquartile mean moves with the mix and still drops runaway
// residual passes (README.md, Findings).
func endToEndMetrics(res *results, setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":                  {setupS, "s"},
		"ingest_events_per_cpu_s":  {iqm(res.ingestRates.cpu), "events/cpu-s"},
		"verdict_cpu_ms_p50":       {median(res.verdictMS.cpu), "ms"},
		"day_close_cpu_s":          {iqm(res.dayCloseS.cpu), "s"},
		"restart_to_verdict_cpu_s": {iqm(res.restartS.cpu), "s"},
		"peak_heap_mb":             {float64(res.heapPeak) / (1 << 20), "MiB"},
	}
}

// wallMetrics are the end-to-end timings on the wall clock, as a user
// waiting for them would read them on an idle host. They are printed
// beside the result, not reported in it.
func wallMetrics(res *results) map[string]metric {
	return map[string]metric{
		"ingest_events_per_s":    {iqm(res.ingestRates.wall), "events/s"},
		"verdict_latency_ms_p50": {median(res.verdictMS.wall), "ms"},
		"day_close_s":            {iqm(res.dayCloseS.wall), "s"},
		"restart_to_verdict_s":   {iqm(res.restartS.wall), "s"},
	}
}

// layerMetrics are the traced run's per-layer figures.
func layerMetrics(res *results, tr *tracer) map[string]metric {
	ls := &res.layers
	rounds := float64(len(res.rounds))
	return map[string]metric{
		"logio.decode_events_per_s":    {median(ls.decodeRates), "events/s"},
		"ingest.consume_s":             {ls.consumeS / rounds, "s"},
		"ingest.apply_drain_ms_p50":    {median(ls.drainMS), "ms"},
		"ingest.checkpoint_s":          {median(ls.checkpointS), "s"},
		"ingest.recovery_s":            {median(ls.recoveryS), "s"},
		"ingest.replayed_events":       {median(ls.replayed), "count"},
		"wal.bytes_per_event":          {ls.walBytes / ls.walEvents, "B"},
		"graph.snapshot_ms_p50":        {median(tr.snapMS), "ms"},
		"graph.dirty_domains_mean":     {float64(tr.dirtySum) / float64(max(tr.exactSnaps, 1)), "count"},
		"graph.inexact_deltas":         {float64(tr.inexactDeltas) / rounds, "count"},
		"graph.edges":                  {float64(ls.edges), "count"},
		"graph.machines":               {float64(ls.machines), "count"},
		"graph.domains":                {float64(ls.domains), "count"},
		"core.classify_ms_p50":         {median(ls.coreMS), "ms"},
		"core.prune_reuse_ratio":       {ratio(ls.pruneCached, ls.corePasses), "ratio"},
		"graph.prune_ms":               {median(ls.pruneMS), "ms"},
		"features.extract_ms":          {median(ls.extractMS), "ms"},
		"ml.score_ms":                  {median(ls.scoreMS), "ms"},
		"belief.pass_ms_p50":           {median(ls.beliefMS), "ms"},
		"belief.updates_mean":          {float64(ls.beliefUpdates) / float64(max(ls.beliefPasses, 1)), "count"},
		"belief.full_passes":           {float64(ls.beliefFull) / rounds, "count"},
		"server.classify_all_ms_p50":   {median(ls.classifyAllMS), "ms"},
		"server.classify_self_ms_p50":  {median(ls.classifySelfMS), "ms"},
		"server.score_cache_hit_ratio": {ls.cacheHits / math.Max(ls.cacheHits+ls.cacheMisses, 1), "ratio"},
		"obs.audit_records":            {ls.auditRecords / rounds, "count"},
	}
}

func sortedNames(ms map[string]metric) []string {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// iqm is the mean of xs without its lowest and highest quarter (NaN
// when empty).
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := len(s) / 4
	sum := 0.0
	for _, x := range s[q : len(s)-q] {
		sum += x
	}
	return sum / float64(len(s)-2*q)
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
