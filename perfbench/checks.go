package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"segugio/internal/belief"
	"segugio/internal/core"
	"segugio/internal/graph"
	"segugio/internal/logio"
)

// lbpTolerance is check (d)'s bound on |served lbp - batch propagation|.
const lbpTolerance = 1e-3

// minPrecision is check (e)'s bound on the share of detections that are
// true malware-control domains.
const minPrecision = 0.8

// refKey names the events a reference covers: the first prefix events
// of a variant's stream day.
type refKey struct{ variant, day, prefix int }

func (o dayOutput) key() refKey { return refKey{o.variant, o.day, o.prefix} }

// reference is what a day's first prefix events should produce,
// computed apart from the streaming path: plain-map counts, and a cold
// core.Detector.Classify plus belief.Propagate over one unsharded
// graph.Builder replay (no segb1, rings, shards, WAL, merge, delta path
// or score cache).
type reference struct {
	machines, domains, edges int
	scores                   map[string]float64
	lbp                      map[string]float64
}

// countEvents is check (b)'s plain-map count of machines, domains and
// machine-domain edges.
func countEvents(events []logio.Event) (machines, domains, edges int) {
	ms := map[string]struct{}{}
	ds := map[string]struct{}{}
	es := map[[2]string]struct{}{}
	for _, e := range events {
		ds[e.Domain] = struct{}{}
		if e.Kind == logio.EventQuery {
			ms[e.Machine] = struct{}{}
			es[[2]string{e.Machine, e.Domain}] = struct{}{}
		}
	}
	return len(ms), len(ds), len(es)
}

// buildReference computes the reference for events: the counts, the
// cold classification and the batch propagation.
func buildReference(in *inputs, day int, events []logio.Event) (*reference, error) {
	ref := &reference{}
	ref.machines, ref.domains, ref.edges = countEvents(events)
	b := graph.NewBuilder("BENCH", in.days[day], in.suffixes)
	for _, e := range events {
		switch e.Kind {
		case logio.EventQuery:
			b.AddQuery(e.Machine, e.Domain)
		case logio.EventResolution:
			for _, ip := range e.IPs {
				b.AddResolution(e.Domain, ip)
			}
		}
	}
	g := b.Snapshot()
	g.ApplyLabels(in.labelSources(g.Day()))
	dets, _, err := in.det.Classify(core.ClassifyInput{Graph: g, Activity: in.act, Abuse: in.abuse})
	if err != nil {
		return nil, fmt.Errorf("reference classify: %w", err)
	}
	ref.scores = make(map[string]float64, len(dets))
	for _, d := range dets {
		ref.scores[d.Domain] = d.Score
	}
	bp, err := belief.Propagate(g, belief.Config{})
	if err != nil {
		return nil, fmt.Errorf("reference propagate: %w", err)
	}
	ref.lbp = make(map[string]float64, len(dets))
	for name := range ref.scores {
		d, _ := g.DomainIndex(name)
		ref.lbp[name] = bp.DomainBelief[d]
	}
	return ref, nil
}

// checkResult is one named check's outcome over a run.
type checkResult struct {
	Name     string
	Checked  int
	Failures []string
	// Notes are figures a check reports without holding them to a bound.
	Notes []string
}

func (c *checkResult) fail(format string, args ...any) {
	if len(c.Failures) < 5 {
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	} else if len(c.Failures) == 5 {
		c.Failures = append(c.Failures, "...")
	}
}

// ok reports whether the check ran on something and nothing failed.
func (c *checkResult) ok() bool { return c.Checked > 0 && len(c.Failures) == 0 }

// checkIngest is check (a): every round applied exactly what it sent,
// with nothing dropped, stale or unparseable.
func checkIngest(rounds []roundCheck) checkResult {
	c := checkResult{Name: "(a) events applied = events sent, 0 dropped/stale/parse errors"}
	for i, r := range rounds {
		c.Checked++
		if r.applied != r.sent || r.dropped != 0 || r.stale != 0 || r.parseErrs != 0 {
			c.fail("round %d: sent %d applied %d dropped %d stale %d parse errors %d",
				i, r.sent, r.applied, r.dropped, r.stale, r.parseErrs)
		}
	}
	return c
}

// checkCounts is check (b): the live snapshot's size equals the
// plain-map counts over the events it covers.
func checkCounts(outs []dayOutput, refs map[refKey]*reference) checkResult {
	c := checkResult{Name: "(b) live snapshot machines/domains/edges = plain-map counts"}
	for _, o := range outs {
		ref := refs[o.key()]
		c.Checked++
		if o.machines != ref.machines || o.domains != ref.domains || o.edges != ref.edges {
			c.fail("round %d day %d: live %d/%d/%d, reference %d/%d/%d", o.round, o.day,
				o.machines, o.domains, o.edges, ref.machines, ref.domains, ref.edges)
		}
	}
	return c
}

// checkVerdicts is check (c): the served row set, forest scores and
// detected flags equal the cold batch classification, exactly.
func checkVerdicts(outs []dayOutput, refs map[refKey]*reference) checkResult {
	c := checkResult{Name: "(c) classify-all rows, scores, detected = cold batch classify"}
	for _, o := range outs {
		ref := refs[o.key()]
		c.Checked++
		if len(o.rows) != len(ref.scores) {
			c.fail("round %d day %d: %d rows served, %d in reference", o.round, o.day, len(o.rows), len(ref.scores))
		}
		for _, row := range o.rows {
			want, ok := ref.scores[row.Domain]
			switch {
			case !ok:
				c.fail("round %d day %d: extra row %s", o.round, o.day, row.Domain)
			case row.Score != want:
				c.fail("round %d day %d: %s scored %v, reference %v", o.round, o.day, row.Domain, row.Score, want)
			case row.Detected != (want >= o.threshold):
				c.fail("round %d day %d: %s detected=%v at score %v threshold %v", o.round, o.day, row.Domain, row.Detected, want, o.threshold)
			}
		}
	}
	return c
}

// checkLBP is check (d): every row carries an lbp score, and on the
// passes the server ran as a full LBP pass (every first pass after an
// open, and a day close after a day rotation or an escalation) each is
// within lbpTolerance of batch belief propagation over the same events.
// A full pass and belief.Propagate run the same synchronous updates from
// the same start, so they agree to rounding. A residual pass starts from
// the previous snapshot's messages; its distance from the batch result
// is reported, not held to the bound: residual passes drift beyond it on
// some populations (README.md, Findings), so a gate on them would fail
// on some seeds and not others.
func checkLBP(outs []dayOutput, refs map[refKey]*reference) checkResult {
	c := checkResult{Name: fmt.Sprintf("(d) lbp scores of full LBP passes within %g of belief.Propagate", lbpTolerance)}
	residual, worst := 0, 0.0
	for _, o := range outs {
		ref := refs[o.key()]
		c.Checked++
		for _, row := range o.rows {
			got, ok := row.Detectors["lbp"]
			want, known := ref.lbp[row.Domain]
			if !ok || !known {
				c.fail("round %d day %d: %s lbp %v (served %v), reference %v", o.round, o.day, row.Domain, got, ok, want)
				continue
			}
			diff := math.Abs(got - want)
			if !o.lbpFull {
				worst = math.Max(worst, diff)
				continue
			}
			if diff > lbpTolerance {
				c.fail("round %d day %d: %s lbp %v, reference %v", o.round, o.day, row.Domain, got, want)
			}
		}
		if !o.lbpFull {
			residual++
		}
	}
	if residual > 0 {
		c.Notes = append(c.Notes, fmt.Sprintf("%d residual-pass outputs not held to the bound: largest |served - belief.Propagate| %.3g", residual, worst))
	}
	return c
}

// checkPrecision is check (e): at least minPrecision of the run's
// detections are malware-control domains per the generator's ground
// truth. It is taken over all outputs together: a small prefix may have
// no detection at all.
func checkPrecision(ins []*inputs, outs []dayOutput) checkResult {
	c := checkResult{Name: fmt.Sprintf("(e) >= %.2f of detections are true C&C domains", minPrecision)}
	detected, truth := 0, 0
	for _, o := range outs {
		c.Checked++
		for _, row := range o.rows {
			if !row.Detected {
				continue
			}
			detected++
			cat := ins[o.variant].cat
			if id, ok := cat.IDByName(row.Domain); ok {
				if _, mal := cat.TrueFamily(id); mal {
					truth++
				}
			}
		}
	}
	if detected == 0 || float64(truth) < minPrecision*float64(detected) {
		c.fail("%d of %d detections are true C&C", truth, detected)
	}
	return c
}

// checkRecovery is check (f): after a restart the recovered graph holds
// exactly the killed process's applied events and the WAL replay
// re-applied exactly the events after its last checkpoint. (The first
// verdicts are held to (b), (c) and (d) with the other outputs.)
func checkRecovery(outs []dayOutput, refs map[refKey]*reference) checkResult {
	c := checkResult{Name: "(f) restart recovers the killed process's graph; replayed = events after its checkpoint"}
	for _, o := range outs {
		if !o.recovered {
			continue
		}
		ref := refs[o.key()]
		c.Checked++
		if o.machines != ref.machines || o.domains != ref.domains || o.edges != ref.edges {
			c.fail("round %d: recovered %d/%d/%d, killed process had %d/%d/%d", o.round,
				o.machines, o.domains, o.edges, ref.machines, ref.domains, ref.edges)
		}
		if o.replayed != o.replayWant {
			c.fail("round %d: replayed %d events, want %d", o.round, o.replayed, o.replayWant)
		}
	}
	return c
}

// buildRefs builds one reference per distinct events prefix the
// outputs served, nproc at a time (the run has ended by then).
func buildRefs(ins []*inputs, outs []dayOutput) (map[refKey]*reference, error) {
	events := map[[2]int][]logio.Event{}
	var keys []refKey
	for _, o := range outs {
		k := o.key()
		if slices.Contains(keys, k) {
			continue
		}
		keys = append(keys, k)
		if _, ok := events[[2]int{k.variant, k.day}]; !ok {
			events[[2]int{k.variant, k.day}] = ins[k.variant].events(k.day)
		}
	}
	built := make([]*reference, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.NumCPU(), len(keys)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(keys); i = int(next.Add(1) - 1) {
				k := keys[i]
				built[i], errs[i] = buildReference(ins[k.variant], k.day, events[[2]int{k.variant, k.day}][:k.prefix])
			}
		}()
	}
	wg.Wait()
	refs := make(map[refKey]*reference, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, errs[i]
		}
		refs[k] = built[i]
	}
	return refs, nil
}

// runChecks runs every check that applies to the run's outputs.
func runChecks(ins []*inputs, res *results, refs map[refKey]*reference) []checkResult {
	out := []checkResult{
		checkIngest(res.rounds),
		checkCounts(res.outputs, refs),
		checkVerdicts(res.outputs, refs),
		checkLBP(res.outputs, refs),
		checkPrecision(ins, res.outputs),
	}
	if hasRecovered(res.outputs) {
		out = append(out, checkRecovery(res.outputs, refs))
	}
	return out
}

func hasRecovered(outs []dayOutput) bool {
	for _, o := range outs {
		if o.recovered {
			return true
		}
	}
	return false
}
