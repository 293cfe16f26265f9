package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"segugio/internal/graph"
)

// span is one traced layer call. Spans of one chunk or pass share a
// trace id; parent is the id of the enclosing span, -1 for none.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"startUs"`
	EndUS   float64 `json:"endUs"`
}

// programStages are the obs.Tracer stages the server reports from
// inside a classify-all pass that become child spans of that pass: the
// forest and the LBP. (Its snapshot stage is the wrapper's own span, and
// feature_extract nests inside classify; both are only totalled.)
var programStages = map[string]bool{"classify": true, "lbp_propagate": true}

// tracer keeps the traced run's spans in memory. Spans are opened and
// closed on the load goroutine only; the program's stage callbacks may
// arrive from ingest workers, so everything is guarded by mu.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	open   []int // stack of open span ids
	trace  string
	stages map[string]*stageTotal // every stage the program reported
	// pass accumulates the stage time the server reported inside the
	// current classify-all pass (for its self time).
	pass map[string]time.Duration

	// snapshot-wrapper observations.
	snapMS        []float64
	dirtySum      int
	exactSnaps    int
	inexactDeltas int
}

type stageTotal struct {
	n     int
	total time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stages: map[string]*stageTotal{}, pass: map[string]time.Duration{}}
}

func (t *tracer) us(at time.Time) float64 { return float64(at.Sub(t.t0).Nanoseconds()) / 1e3 }

// setTrace names the chunk or pass the next spans belong to.
func (t *tracer) setTrace(id string) {
	t.mu.Lock()
	t.trace = id
	clear(t.pass)
	t.mu.Unlock()
}

// begin opens a span under the innermost open one; the returned func
// closes it and reports its duration.
func (t *tracer) begin(name string) func() time.Duration {
	start := time.Now()
	t.mu.Lock()
	id := len(t.spans)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: t.trace, Name: name, StartUS: t.us(start)})
	t.open = append(t.open, id)
	t.mu.Unlock()
	return func() time.Duration {
		end := time.Now()
		t.mu.Lock()
		t.spans[id].EndUS = t.us(end)
		t.open = t.open[:len(t.open)-1]
		t.mu.Unlock()
		return end.Sub(start)
	}
}

// onStage is the obs.Tracer stage callback: it totals every stage, and
// records the server's pass stages as children of the open span.
func (t *tracer) onStage(stage string, seconds float64) {
	end := time.Now()
	d := time.Duration(seconds * float64(time.Second))
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stages[stage]
	if st == nil {
		st = &stageTotal{}
		t.stages[stage] = st
	}
	st.n++
	st.total += d
	if !programStages[stage] || len(t.open) == 0 {
		return
	}
	t.pass[stage] += d
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: t.open[len(t.open)-1], Trace: t.trace,
		Name: "stage." + stage, StartUS: t.us(end.Add(-d)), EndUS: t.us(end),
	})
}

// passStage is the time the server reported for stage in the current
// pass.
func (t *tracer) passStage(stage string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pass[stage]
}

// snapshot records one wrapped SnapshotSince call.
func (t *tracer) snapshot(d time.Duration, delta graph.Delta) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.snapMS = append(t.snapMS, ms(d))
	if delta.Exact {
		t.exactSnaps++
		t.dirtySum += len(delta.Domains)
	} else {
		t.inexactDeltas++
	}
}

// layerTime is one span name's total and self time.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
}

// totals sums every span name's duration and self time: its duration
// minus the part its children cover.
func (t *tracer) totals() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndUS - s.StartUS
		}
	}
	by := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := by[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			by[s.Name] = lt
		}
		dur := s.EndUS - s.StartUS
		lt.Calls++
		lt.TotalMS += dur / 1e3
		lt.SelfMS += max(dur-child[i], 0) / 1e3
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// write saves the spans, the per-name totals, the program's stage
// totals and the host to path as JSON.
func (t *tracer) write(path string, host hostInfo) error {
	totals := t.totals()
	t.mu.Lock()
	stages := map[string]float64{}
	for name, st := range t.stages {
		stages[name] = ms(st.total)
	}
	doc := struct {
		Host        hostInfo           `json:"host"`
		Layers      []layerTime        `json:"layers"`
		StageTotals map[string]float64 `json:"programStageTotalsMs"`
		Spans       []span             `json:"spans"`
	}{host, totals, stages, t.spans}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printTotals writes the per-layer totals and self times as a table.
func (t *tracer) printTotals(w io.Writer) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, lt := range t.totals() {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", lt.Name, lt.Calls, lt.TotalMS, lt.SelfMS)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.stages))
	for name := range t.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := t.stages[name]
		fmt.Fprintf(w, "program stage %-14s %8d %12.3f\n", name, st.n, ms(st.total))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
