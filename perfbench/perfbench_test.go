package main

import (
	"encoding/json"
	"io"
	"strings"
	"testing"

	"segugio/internal/logio"
)

// TestSmallScale runs every workload end to end at small scale, checks
// included, untraced and traced.
func TestSmallScale(t *testing.T) {
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			name := wl
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var out strings.Builder
				res, err := run(options{workload: wl, seed: 1, trace: traced, small: true, workDir: t.TempDir()}, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
				}
				want := endToEndNames
				if traced {
					want = perLayerNames
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d: %v", len(res.Metrics), len(want), res.Metrics)
				}
				for _, m := range want {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

var endToEndNames = []string{
	"setup_s", "ingest_events_per_cpu_s", "verdict_cpu_ms_p50", "day_close_cpu_s",
	"restart_to_verdict_cpu_s", "peak_heap_mb",
}

var perLayerNames = []string{
	"logio.decode_events_per_s", "ingest.consume_s", "ingest.apply_drain_ms_p50",
	"ingest.checkpoint_s", "ingest.recovery_s", "ingest.replayed_events", "wal.bytes_per_event",
	"graph.snapshot_ms_p50", "graph.dirty_domains_mean", "graph.inexact_deltas", "graph.edges",
	"graph.machines", "graph.domains", "core.classify_ms_p50", "core.prune_reuse_ratio",
	"graph.prune_ms", "features.extract_ms", "ml.score_ms", "belief.pass_ms_p50",
	"belief.updates_mean", "belief.full_passes", "server.classify_all_ms_p50",
	"server.classify_self_ms_p50", "server.score_cache_hit_ratio", "obs.audit_records",
}

// oneRound runs a single small-scale round of workload and returns its
// inputs, results and references.
func oneRound(t *testing.T, workload string) (*inputs, *results, map[refKey]*reference) {
	t.Helper()
	dir := t.TempDir()
	u, err := buildUniverse(smallScale())
	if err != nil {
		t.Fatal(err)
	}
	in, err := buildInputs(u, smallScale(), 5, dir)
	if err != nil {
		t.Fatal(err)
	}
	pls, err := prepare(workload, in, dir)
	if err != nil {
		t.Fatal(err)
	}
	rn := newRunner([]variant{{in: in, rounds: pls}}, dir, nil, io.Discard)
	if err := rn.run(0); err != nil {
		t.Fatal(err)
	}
	ins := []*inputs{in}
	refs, err := buildRefs(ins, rn.res.outputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range runChecks(ins, rn.res, refs) {
		if !c.ok() {
			t.Fatalf("check %s failed on uncorrupted outputs: %v", c.Name, c.Failures)
		}
	}
	return in, rn.res, refs
}

// TestChecksCatchCorruption shows that no check passes vacuously: each
// fails on a deliberately corrupted output.
func TestChecksCatchCorruption(t *testing.T) {
	in, res, refs := oneRound(t, wlRestartLive)
	o := res.outputs[len(res.outputs)-1] // the day close
	key := o.key()
	events := in.events(o.day)[:o.prefix]

	short := withholdOne(t, events)
	shortRef, err := buildReference(in, o.day, short)
	if err != nil {
		t.Fatal(err)
	}

	cloneOut := func() dayOutput {
		c := o
		c.rows = append(c.rows[:0:0], o.rows...)
		return c
	}
	withRefs2 := func(k refKey, ref *reference) map[refKey]*reference {
		m := map[refKey]*reference{}
		for k, v := range refs {
			m[k] = v
		}
		m[k] = ref
		return m
	}
	withRefs := func(ref *reference) map[refKey]*reference { return withRefs2(key, ref) }

	cases := []struct {
		name  string
		check func() checkResult
	}{
		{"(a) one event never applied", func() checkResult {
			rounds := append([]roundCheck(nil), res.rounds...)
			rounds[0].applied--
			return checkIngest(rounds)
		}},
		{"(b) one event withheld from the reference", func() checkResult {
			return checkCounts([]dayOutput{o}, withRefs(shortRef))
		}},
		{"(c) one perturbed score", func() checkResult {
			c := cloneOut()
			c.rows[0].Score += 1e-12
			return checkVerdicts([]dayOutput{c}, refs)
		}},
		{"(c) one extra row", func() checkResult {
			c := cloneOut()
			extra := c.rows[0]
			extra.Domain = "extra.row.example"
			c.rows = append(c.rows, extra)
			return checkVerdicts([]dayOutput{c}, refs)
		}},
		{"(c) one flipped detected flag", func() checkResult {
			c := cloneOut()
			c.rows[0].Detected = !c.rows[0].Detected
			return checkVerdicts([]dayOutput{c}, refs)
		}},
		{"(d) one perturbed lbp score of a full pass", func() checkResult {
			c := res.outputs[0] // the first pass after the open: full
			if !c.lbpFull {
				t.Fatal("first pass after the open was not a full LBP pass")
			}
			c.rows = append(c.rows[:0:0], c.rows...)
			scores := map[string]float64{}
			for k, v := range c.rows[0].Detectors {
				scores[k] = v
			}
			scores["lbp"] += 2 * lbpTolerance
			c.rows[0].Detectors = scores
			return checkLBP([]dayOutput{c}, refs)
		}},
		{"(d) one lbp score missing", func() checkResult {
			c := cloneOut()
			c.rows[0].Detectors = nil
			return checkLBP([]dayOutput{c}, refs)
		}},
		{"(e) every row detected", func() checkResult {
			c := cloneOut()
			for i := range c.rows {
				c.rows[i].Detected = true
			}
			return checkPrecision([]*inputs{in}, []dayOutput{c})
		}},
		{"(f) one event withheld from the killed process's reference", func() checkResult {
			first := res.outputs[0]
			m, d, e := countEvents(withholdOne(t, in.events(first.day)[:first.prefix]))
			return checkRecovery([]dayOutput{first}, withRefs2(first.key(),
				&reference{machines: m, domains: d, edges: e}))
		}},
		{"(f) replay count off by one", func() checkResult {
			first := res.outputs[0]
			first.replayed++
			return checkRecovery([]dayOutput{first}, refs)
		}},
	}
	for _, tc := range cases {
		c := tc.check()
		if c.ok() {
			t.Errorf("%s: check %q passed", tc.name, c.Name)
		}
	}
}

// withholdOne drops the last query whose machine-domain edge occurs
// once, so the plain-map edge count moves.
func withholdOne(t *testing.T, events []logio.Event) []logio.Event {
	t.Helper()
	seen := map[[2]string]int{}
	for _, e := range events {
		if e.Kind == logio.EventQuery {
			seen[[2]string{e.Machine, e.Domain}]++
		}
	}
	for i := len(events) - 1; i >= 0; i-- {
		e := events[i]
		if e.Kind == logio.EventQuery && seen[[2]string{e.Machine, e.Domain}] == 1 {
			return append(append([]logio.Event(nil), events[:i]...), events[i+1:]...)
		}
	}
	t.Fatal("no single-occurrence edge to withhold")
	return nil
}

func TestUnknownWorkload(t *testing.T) {
	var out strings.Builder
	if _, err := run(options{workload: "no-such-workload", seed: 1, small: true, workDir: t.TempDir()}, &out); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
