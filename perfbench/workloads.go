package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"segugio/internal/belief"
	"segugio/internal/core"
	"segugio/internal/graph"
	"segugio/internal/logio"
	"segugio/internal/obs"
	"segugio/internal/server"
)

// Workload names.
const (
	wlBackfill    = "ingest-backfill"
	wlRestartLive = "restart-live"
)

var workloadNames = []string{wlBackfill, wlRestartLive}

// stream is one Consume call's segb1 bytes and its event span within a
// stream day. pass requests a classify-all once it is applied; the
// last stream of a day always has one.
type stream struct {
	data   []byte
	lo, hi int
	pass   bool
}

// plan is one round's prepared inputs: the streams it replays, which
// end stream day day (an index into inputs.days), and the state
// directory it opens, which a process killed without Shutdown left: the
// first at events of stream day atDay, of which it applied replayWant
// after its last checkpoint.
type plan struct {
	day        int
	streams    []stream
	stateDir   string
	atDay, at  int
	replayWant int
}

// prepare encodes the workload's streams into round plans and builds
// the state directories the rounds open under dir. It is part of
// set-up.
//
// ingest-backfill has one round for each stream day but the last: open
// the state of a process started on that day and killed right after
// checkpointing all of it, take the first classify-all, then replay the
// next stream day in QueueDepth windows with a classify-all and a
// checkpoint at its end.
//
// restart-live has one round for each of the first restartDays stream
// days: open the state of a process killed on that day, take the first
// classify-all, replay the events up to the day's last LiveChunks
// chunks in QueueDepth windows, then those chunks one at a time with a
// classify-all after each.
func prepare(workload string, in *inputs, dir string) ([]*plan, error) {
	sc := in.sc
	// cut encodes events[lo:hi] as streams of at most size events.
	cut := func(events []logio.Event, lo, hi, size int, pass bool) ([]stream, error) {
		datas, err := encodeChunks(events[lo:hi], size)
		if err != nil {
			return nil, err
		}
		out := make([]stream, len(datas))
		for i, data := range datas {
			s := lo + i*size
			out[i] = stream{data: data, lo: s, hi: min(s+size, hi), pass: pass}
		}
		return out, nil
	}
	var pls []*plan
	switch workload {
	case wlBackfill:
		for d := 0; d+1 < len(in.days); d++ {
			evs := in.events(d)
			pl := &plan{atDay: d, at: len(evs), stateDir: filepath.Join(dir, fmt.Sprintf("resumed%d", d))}
			if err := buildKilledState(in, d, evs, len(evs), len(evs), pl.stateDir, filepath.Join(dir, "live")); err != nil {
				return nil, fmt.Errorf("backfill state: %w", err)
			}
			next := in.events(d + 1)
			ss, err := cut(next, 0, len(next), sc.QueueDepth, false)
			if err != nil {
				return nil, err
			}
			pl.day, pl.streams = d+1, ss
			pls = append(pls, pl)
		}
	case wlRestartLive:
		for d := 0; d < restartDays; d++ {
			evs := in.events(d)
			n := len(evs)
			ckptAt := int(float64(n) * checkpointShare)
			liveAt := n - sc.LiveChunks*sc.ChunkEvents
			at := ckptAt + int(killShare*float64(liveAt-ckptAt))
			bulk, err := cut(evs, at, liveAt, sc.QueueDepth, false)
			if err != nil {
				return nil, err
			}
			live, err := cut(evs, liveAt, n, sc.ChunkEvents, true)
			if err != nil {
				return nil, err
			}
			pl := &plan{atDay: d, at: at, replayWant: at - ckptAt, stateDir: filepath.Join(dir, fmt.Sprintf("killed%d", d)),
				day: d, streams: append(bulk, live...)}
			if err := buildKilledState(in, d, evs, ckptAt, at, pl.stateDir, filepath.Join(dir, "live")); err != nil {
				return nil, fmt.Errorf("restart state: %w", err)
			}
			pls = append(pls, pl)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return pls, nil
}

// buildKilledState runs a process started on stream day d over the
// first at of that day's events, checkpointing after ckptAt of them, and
// copies its state directory to stateDir while it is still live: the
// directory a process killed without Shutdown leaves, with a written
// WAL tail after the checkpoint.
func buildKilledState(in *inputs, d int, events []logio.Event, ckptAt, at int, stateDir, liveDir string) error {
	p, err := openPipeline(in, in.days[d], liveDir, nil)
	if err != nil {
		return err
	}
	defer os.RemoveAll(liveDir)
	defer p.close()
	window := in.sc.QueueDepth
	feed := func(lo, hi int) error {
		datas, err := encodeChunks(events[lo:hi], window)
		if err != nil {
			return err
		}
		for i, data := range datas {
			if err := p.consume(data, min(window, hi-lo-i*window)); err != nil {
				return err
			}
			if err := p.waitApplied(p.sent.Load()); err != nil {
				return err
			}
		}
		return nil
	}
	if err := feed(0, ckptAt); err != nil {
		return err
	}
	if err := p.ing.Checkpoint(); err != nil {
		return err
	}
	if err := feed(ckptAt, at); err != nil {
		return err
	}
	return copyDir(liveDir, stateDir)
}

// dayOutput is what a day-end (or first post-restart) classify-all
// served, kept for the checks made after the run.
type dayOutput struct {
	variant, round       int
	day, prefix          int
	threshold            float64
	rows                 []server.ClassifyDetection
	machines, domains    int
	edges                int
	recovered            bool // first pass after a restart
	lbpFull              bool // the server ran this pass's LBP in full mode
	replayed, replayWant int
}

// roundCheck is one round's ingest accounting for check (a).
type roundCheck struct {
	sent, applied, dropped, stale, parseErrs int64
}

// results accumulates a run's measurements.
type results struct {
	attempted, failed int64
	stalled           bool

	// ingestRates are each pass's events over the time from the first
	// of them handed over to the pass's reply.
	ingestRates          samples
	verdictMS, dayCloseS samples
	restartS             samples
	heapPeak             uint64
	outputs              []dayOutput
	rounds               []roundCheck
	layers               layerStats
}

// layerStats are the traced run's per-layer measurements.
type layerStats struct {
	decodeRates                             []float64
	consumeS                                float64
	drainMS, checkpointS, recoveryS         []float64
	replayed                                []float64
	walBytes, walEvents                     float64
	coreMS, pruneMS, extractMS, scoreMS     []float64
	corePasses, pruneCached                 int
	beliefMS                                []float64
	beliefUpdates, beliefPasses, beliefFull int
	classifyAllMS, classifySelfMS           []float64
	cacheHits, cacheMisses                  float64
	auditRecords                            float64
	edges, machines, domains                int
}

// variant is one generated ISP with its prepared round plans.
type variant struct {
	in     *inputs
	rounds []*plan
}

// runner drives one run's rounds from a single goroutine. A cycle
// replays every round plan of every variant once, so a run's figures
// span several ISPs and stream days.
type runner struct {
	vs   []variant
	v    int // the current round's variant
	in   *inputs
	pl   *plan
	dir  string
	tr   *tracer
	res  *results
	log  io.Writer
	heap peakHeap

	round int
	// fullLBP counts the current pipeline's full LBP passes, and
	// lastFull says whether the last pass was one.
	fullLBP  float64
	lastFull bool
	// sess mirrors the server's forest layer on the same snapshots in
	// traced runs.
	sess *core.ClassifySession
}

func newRunner(vs []variant, dir string, tr *tracer, log io.Writer) *runner {
	return &runner{vs: vs, dir: dir, tr: tr, res: &results{}, log: log}
}

// heapInUse is the heap's object memory: live objects and dead ones not
// yet swept.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakHeap keeps the largest heapInUse reading taken while it runs: one
// every 100 ms, and one before and after each classify-all.
type peakHeap struct {
	max        atomic.Uint64
	stop, done chan struct{}
}

func (h *peakHeap) start() {
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	h.sample()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
}

func (h *peakHeap) sample() {
	v := heapInUse()
	for m := h.max.Load(); v > m && !h.max.CompareAndSwap(m, v); m = h.max.Load() {
	}
}

// end stops the sampling and returns the peak.
func (h *peakHeap) end() uint64 {
	close(h.stop)
	<-h.done
	h.sample()
	return h.max.Load()
}

// run repeats whole cycles of rounds, every plan of every variant once a
// cycle, until seconds have passed (at least one cycle). peak_heap_mb is
// the heap in use at its peak over the run, minus the heap in use at its
// start (after a GC), which holds the inputs.
func (r *runner) run(seconds float64) error {
	runtime.GC()
	heap0 := heapInUse()
	r.heap.start()
	defer func() {
		peak := r.heap.end()
		if peak > heap0 {
			r.res.heapPeak = peak - heap0
		}
		fmt.Fprintf(r.log, "heap in use: %.1f MiB at the run's start, %.1f MiB at its peak\n",
			float64(heap0)/(1<<20), float64(peak)/(1<<20))
	}()
	start := time.Now()
	for {
		r.v = r.round % len(r.vs)
		v := r.vs[r.v]
		r.in, r.pl = v.in, v.rounds[r.round/len(r.vs)%len(v.rounds)]
		if err := r.runRound(); err != nil {
			if errors.Is(err, errStalled) {
				r.res.stalled = true
				return nil
			}
			return err
		}
		r.round++
		if r.round%r.cycle() == 0 && time.Since(start).Seconds() >= seconds {
			return nil
		}
	}
}

// cycle is the number of rounds that replay every plan once.
func (r *runner) cycle() int { return len(r.vs) * len(r.vs[0].rounds) }

// traceID names the chunk or pass the next spans belong to.
func (r *runner) traceID(kind string, n int) {
	if r.tr != nil {
		r.tr.setTrace("round" + strconv.Itoa(r.round) + "/" + kind + strconv.Itoa(n))
	}
}

// span opens a traced span; a no-op in untraced runs.
func (r *runner) span(name string) func() time.Duration {
	if r.tr == nil {
		return func() time.Duration { return 0 }
	}
	return r.tr.begin(name)
}

// runRound is one closed-loop round: open the killed process's state,
// replay the plan's streams with their passes, and shut down cleanly.
func (r *runner) runRound() error {
	dir := filepath.Join(r.dir, "state")
	os.RemoveAll(dir)
	if err := copyDir(r.pl.stateDir, dir); err != nil {
		return err
	}
	if r.tr != nil {
		r.sess = r.in.det.NewSession()
	}
	r.fullLBP = 0
	r.traceID("open", 0)
	t0 := now()
	end := r.span("ingest.open_durable")
	p, err := openPipeline(r.in, r.in.days[r.pl.atDay], dir, r.tr)
	recovery := end()
	r.res.attempted++
	if err != nil {
		// A failed open (or recovery) is a failed operation; the run
		// goes on with the next round.
		r.res.failed++
		fmt.Fprintf(r.log, "round %d: %v\n", r.round, err)
		return nil
	}
	defer os.RemoveAll(dir)
	closed := false
	defer func() {
		if !closed {
			p.close()
		}
	}()
	ls := &r.res.layers
	if r.tr != nil {
		ls.recoveryS = append(ls.recoveryS, recovery.Seconds())
		ls.replayed = append(ls.replayed, float64(p.info.ReplayedEvents))
	}

	// The first classify-all, right after the open, covers the
	// recovered state and is checked with the recovery.
	resp, err := r.pass(p, 0)
	if err != nil {
		return err
	}
	if resp != nil {
		wall, cpu := now().sub(t0)
		r.res.restartS.add(cpu.Seconds(), wall.Seconds())
		out := r.dayOutput(p, resp, r.pl.atDay, r.pl.at)
		out.recovered, out.replayed, out.replayWant = true, p.info.ReplayedEvents, r.pl.replayWant
		r.res.outputs = append(r.res.outputs, out)
	}

	verdicts0 := len(r.res.verdictMS.cpu)
	var firstHand, lastApplied instant
	var sentRound, passFrom int64
	chunk, passes := 0, 1
	// passStart is the first hand-over a pass covers, latStart the
	// first hand-over of its chunk: a live chunk's own, else the
	// first window's.
	var passStart, latStart instant
	for i, s := range r.pl.streams {
		n := int64(s.hi - s.lo)
		// Backpressure: at most one stream in flight ahead.
		if err := p.waitApplied(sentRound - prevLen(r.pl.streams, i)); err != nil {
			return r.stall(p, err)
		}
		r.traceID("chunk", chunk)
		chunk++
		hand := now()
		if firstHand.isZero() {
			firstHand = hand
		}
		if passStart.isZero() {
			passStart, passFrom = hand, sentRound
		}
		if s.pass || latStart.isZero() {
			latStart = hand
		}
		end := r.span("ingest.consume")
		err := p.consume(s.data, int(n))
		took := end()
		r.res.attempted += n
		sentRound += n
		ls.consumeS += took.Seconds()
		if err != nil {
			return r.stall(p, err)
		}
		lastOfDay := i == len(r.pl.streams)-1
		if !s.pass && !lastOfDay {
			continue
		}
		handed := now()
		end = r.span("ingest.apply_drain")
		err = p.waitApplied(sentRound)
		drain := end()
		if err != nil {
			return r.stall(p, err)
		}
		lastApplied = now()
		if r.tr != nil {
			ls.drainMS = append(ls.drainMS, ms(drain))
		}
		resp, err := r.pass(p, passes)
		passes++
		if err != nil {
			return err
		}
		reply := now()
		if resp != nil {
			wall, cpu := reply.sub(latStart)
			r.res.verdictMS.add(ms(cpu), ms(wall))
			events := float64(sentRound - passFrom)
			wall, cpu = reply.sub(passStart)
			r.res.ingestRates.add(events/cpu.Seconds(), events/wall.Seconds())
			if lastOfDay {
				wall, cpu := reply.sub(handed)
				r.res.dayCloseS.add(cpu.Seconds(), wall.Seconds())
				r.res.outputs = append(r.res.outputs, r.dayOutput(p, resp, r.pl.day, s.hi))
			}
		}
		passStart, latStart = instant{}, instant{}
		if lastOfDay {
			r.traceID("checkpoint", r.pl.day)
			end := r.span("ingest.checkpoint")
			err := p.ing.Checkpoint()
			took := end()
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			if r.tr != nil {
				ls.checkpointS = append(ls.checkpointS, took.Seconds())
			}
		}
	}
	wall, cpu := lastApplied.sub(firstHand)
	fmt.Fprintf(r.log, "round %d variant %d day %d: %d events in %.2f s (%.2f CPU s), verdict p50 %.1f ms (%.1f CPU ms) over %d passes\n",
		r.round, r.v, r.pl.day, sentRound, wall.Seconds(), cpu.Seconds(),
		median(r.res.verdictMS.wall[verdicts0:]), median(r.res.verdictMS.cpu[verdicts0:]), len(r.res.verdictMS.cpu)-verdicts0)
	r.res.rounds = append(r.res.rounds, roundCheck{
		sent: sentRound, applied: p.applied(),
		dropped: p.dropped.Value(), stale: p.stale.Value(), parseErrs: p.parseErrs.Value(),
	})
	if r.tr != nil {
		if err := r.roundLayers(p); err != nil {
			return err
		}
	}
	// A clean heap for the next round.
	closed = true
	p.close()
	runtime.GC()
	return nil
}

// prevLen is the event count of the stream before streams[i], the most
// the replay lets stay in flight while handing streams[i].
func prevLen(streams []stream, i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(streams[i-1].hi - streams[i-1].lo)
}

// stall turns a stalled pipeline into failed operations: every event
// handed over and never applied.
func (r *runner) stall(p *pipeline, err error) error {
	if errors.Is(err, errStalled) {
		r.res.failed += p.sent.Load() - p.applied()
	}
	return err
}

// pass runs one classify-all and, in traced runs, the mirrored layer
// calls on the same snapshot. A failed classify-all is a failed
// operation: it returns a nil reply and no error.
func (r *runner) pass(p *pipeline, n int) (*server.ClassifyResponse, error) {
	r.traceID("pass", n)
	r.res.attempted++
	r.heap.sample()
	end := r.span("server.classify_all")
	resp, err := p.classifyAll()
	took := end()
	r.heap.sample()
	full := p.counter("segugiod_lbp_passes_total", `{mode="full"}`)
	r.lastFull, r.fullLBP = full > r.fullLBP, full
	if err != nil {
		r.res.failed++
		fmt.Fprintf(r.log, "round %d pass %d: %v\n", r.round, n, err)
		return nil, nil
	}
	if r.tr != nil {
		ls := &r.res.layers
		ls.classifyAllMS = append(ls.classifyAllMS, ms(took))
		var snap time.Duration
		if k := len(r.tr.snapMS); k > 0 {
			snap = time.Duration(r.tr.snapMS[k-1] * float64(time.Millisecond))
		}
		lbp := r.tr.passStage("lbp_propagate")
		self := took - snap - r.tr.passStage("classify") - lbp
		ls.classifySelfMS = append(ls.classifySelfMS, ms(self))
		r.lbpPass(p, lbp)
		if err := r.mirror(p); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// lbpPass records the server's LBP pass: the lbp_propagate stage time
// it reported, and the mode and node updates its lbp_propagate span
// carries in the program's trace recorder.
func (r *runner) lbpPass(p *pipeline, took time.Duration) {
	ls := &r.res.layers
	ls.beliefMS = append(ls.beliefMS, ms(took))
	ls.beliefPasses++
	for _, tr := range p.otr.Dump().Recent {
		for _, s := range tr.Spans {
			if s.Name != obs.StageLBPPropagate {
				continue
			}
			if s.Attrs["mode"] == belief.ModeFull {
				ls.beliefFull++
			}
			n, _ := strconv.Atoi(s.Attrs["updates"])
			ls.beliefUpdates += n
			return
		}
	}
}

// mirror calls core on the snapshot the server just used: a full
// ClassifySession.Classify when the delta is inexact, else
// ClassifyDelta over the dirty unknown domains.
func (r *runner) mirror(p *pipeline) error {
	ls := &r.res.layers
	last := p.src.last
	g := last.g
	in := core.ClassifyInput{Graph: g, Activity: r.in.act, Abuse: r.in.abuse}
	var report *core.ClassifyReport
	var err error
	end := r.span("core.classify")
	if !last.delta.Exact || last.since == 0 {
		_, report, err = r.sess.Classify(in)
	} else {
		var targets []string
		for _, name := range last.delta.Domains {
			if d, ok := g.DomainIndex(name); ok && g.DomainLabel(d) == graph.LabelUnknown {
				targets = append(targets, name)
			}
		}
		if len(targets) > 0 {
			in.Domains = targets
			_, report, err = r.sess.ClassifyDelta(in)
		}
	}
	took := end()
	if err != nil {
		return fmt.Errorf("mirror classify: %w", err)
	}
	if report != nil {
		ls.coreMS = append(ls.coreMS, ms(took))
		ls.pruneMS = append(ls.pruneMS, ms(report.Timing.Prune))
		ls.extractMS = append(ls.extractMS, ms(report.Timing.Extract))
		ls.scoreMS = append(ls.scoreMS, ms(report.Timing.Score))
		ls.corePasses++
		if report.PrunedCached {
			ls.pruneCached++
		}
	}
	return nil
}

// dayOutput captures a day-end pass and the live snapshot it ran on.
func (r *runner) dayOutput(p *pipeline, resp *server.ClassifyResponse, day, prefix int) dayOutput {
	g, _ := p.ing.Snapshot()
	return dayOutput{
		variant: r.v, round: r.round, day: day, prefix: prefix, threshold: resp.Threshold, rows: resp.Detections,
		lbpFull: r.lastFull, machines: g.NumMachines(), domains: g.NumDomains(), edges: g.NumEdges(),
	}
}

// roundLayers records the per-round layer figures of a traced run.
func (r *runner) roundLayers(p *pipeline) error {
	ls := &r.res.layers
	ls.walBytes += float64(p.walBytes.Value())
	ls.walEvents += float64(p.applied())
	ls.cacheHits += p.counter("segugiod_classify_cache_hits_total", "")
	ls.cacheMisses += p.counter("segugiod_classify_cache_misses_total", "")
	ls.auditRecords += float64(p.audit.Appended())
	g, _ := p.ing.Snapshot()
	ls.edges, ls.machines, ls.domains = g.NumEdges(), g.NumMachines(), g.NumDomains()
	// Standalone decode of the round's streams.
	var events int
	var took time.Duration
	for _, s := range r.pl.streams {
		end := r.span("logio.decode")
		dec := logio.NewEventDecoder(bytes.NewReader(s.data))
		err := dec.Run(func(*logio.Event) error { events++; return nil })
		dec.Release()
		took += end()
		if err != nil {
			return fmt.Errorf("standalone decode: %w", err)
		}
	}
	ls.decodeRates = append(ls.decodeRates, float64(events)/took.Seconds())
	return nil
}
