package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"segugio/internal/graph"
	"segugio/internal/ingest"
	"segugio/internal/metrics"
	"segugio/internal/obs"
	"segugio/internal/server"
	"segugio/internal/wal"
)

// checkpointEvery is the durability loop's own checkpoint interval. It
// is longer than any run, so the only checkpoints are the ones the
// benchmark takes at each day end and the replay a restart sees is the
// same on every run.
const checkpointEvery = time.Hour

// stallTimeout is how long applied events may stop advancing, with
// events outstanding, before the watchdog declares the pipeline stalled.
const stallTimeout = 5 * time.Second

// pipeline is one segugiod process's layers, wired the way cmd/segugiod
// wires them: a durable, sharded ingester with shed policy `block`, and
// a server with the forest and lbp detectors, the activity log, the
// abuse index and an on-disk audit trail.
type pipeline struct {
	ing     *ingest.Ingester
	info    *ingest.RecoveryInfo
	handler http.Handler
	audit   *obs.AuditLog
	reg     *metrics.Registry

	ingested, dropped, stale, parseErrs *metrics.Counter
	walBytes                            *metrics.Counter

	// otr is the program's tracer in traced runs; nil otherwise.
	otr *obs.Tracer

	// src is the snapshot-timing wrapper handed to the server in traced
	// runs; nil otherwise.
	src *timedSource

	// sent counts events handed to Consume; the watchdog compares it
	// with the applied counter.
	sent    atomic.Int64
	stalled atomic.Bool
	wdStop  chan struct{}
	wdDone  chan struct{}
}

// openPipeline opens (or recovers) the state in dir, starting on
// startDay when the state holds none. tr, when non-nil,
// makes this a traced run: the program's own stage callbacks and the
// snapshot wrapper feed it.
func openPipeline(in *inputs, startDay int, dir string, tr *tracer) (*pipeline, error) {
	p := &pipeline{reg: metrics.NewRegistry()}
	p.ingested = p.reg.NewCounter("bench_events_ingested_total", "", "")
	p.dropped = p.reg.NewCounter("bench_events_dropped_total", "", "")
	p.stale = p.reg.NewCounter("bench_events_stale_total", "", "")
	p.parseErrs = p.reg.NewCounter("bench_parse_errors_total", "", "")
	p.walBytes = p.reg.NewCounter("bench_wal_bytes_total", "", "")

	var otr *obs.Tracer
	if tr != nil {
		otr = obs.NewTracer(obs.TracerConfig{OnStage: tr.onStage})
	}
	p.otr = otr
	icfg := ingest.Config{
		Network:    "BENCH",
		StartDay:   startDay,
		Suffixes:   in.suffixes,
		Workers:    runtime.NumCPU(),
		QueueDepth: in.sc.QueueDepth,
		Activity:   in.act,
		ShedPolicy: ingest.ShedBlock,
		Tracer:     otr,
		Metrics: &ingest.Metrics{
			EventsIngested: p.ingested,
			EventsDropped:  p.dropped,
			EventsStale:    p.stale,
			ParseErrors:    p.parseErrs,
		},
		PrepareSnapshot: func(g *graph.Graph) { g.ApplyLabels(in.labelSources(g.Day())) },
	}
	var err error
	p.ing, p.info, err = ingest.OpenDurable(icfg, ingest.DurableConfig{
		Dir:             dir,
		CheckpointEvery: checkpointEvery,
		Metrics:         &ingest.DurableMetrics{WAL: wal.Metrics{Bytes: p.walBytes}},
	})
	if err != nil {
		return nil, fmt.Errorf("open state: %w", err)
	}
	p.audit, err = obs.OpenAudit(obs.AuditConfig{Dir: filepath.Join(dir, "audit")})
	if err != nil {
		p.ing.Shutdown()
		return nil, fmt.Errorf("open audit: %w", err)
	}
	handle, err := server.OpenDetector(in.detPath)
	if err != nil {
		p.audit.Close()
		p.ing.Shutdown()
		return nil, err
	}
	var graphs server.GraphSource = p.ing
	if tr != nil {
		p.src = &timedSource{ing: p.ing, tr: tr}
		graphs = p.src
	}
	p.handler = server.New(server.Config{
		Graphs:    graphs,
		Detector:  handle,
		Activity:  in.act,
		Abuse:     in.abuse,
		Registry:  p.reg,
		Tracer:    otr,
		Audit:     p.audit,
		Detectors: []string{"forest", "lbp"},
	}).Handler()
	p.wdStop, p.wdDone = make(chan struct{}), make(chan struct{})
	go p.watchdog()
	return p, nil
}

// close stops the watchdog and shuts the process down cleanly.
func (p *pipeline) close() {
	close(p.wdStop)
	<-p.wdDone
	p.ing.Shutdown()
	p.audit.Close()
}

// applied is the number of events the ingester has applied.
func (p *pipeline) applied() int64 { return p.ingested.Value() }

// consume hands one segb1 stream to the ingester.
func (p *pipeline) consume(stream []byte, events int) error {
	p.sent.Add(int64(events))
	err := p.ing.Consume(bytes.NewReader(stream))
	if err != nil && p.stalled.Load() {
		return errStalled
	}
	return err
}

var errStalled = fmt.Errorf("ingest stalled: applied events stopped advancing for %v", stallTimeout)

// waitApplied blocks until at least target events are applied. It
// returns errStalled when the watchdog gave up on the pipeline.
func (p *pipeline) waitApplied(target int64) error {
	for p.applied() < target {
		if p.stalled.Load() {
			return errStalled
		}
		time.Sleep(20 * time.Microsecond)
	}
	return nil
}

// watchdog declares a stall when applied events stop advancing for
// stallTimeout while events are outstanding. It writes every
// goroutine's stack to standard error and shuts the ingester down,
// which unwinds a Consume blocked on a full ring.
func (p *pipeline) watchdog() {
	defer close(p.wdDone)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	last, lastMove := p.applied(), time.Now()
	for {
		select {
		case <-p.wdStop:
			return
		case now := <-tick.C:
			cur := p.applied()
			if cur != last || cur >= p.sent.Load() {
				last, lastMove = cur, now
				continue
			}
			if now.Sub(lastMove) < stallTimeout {
				continue
			}
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "perfbench: stall: %d of %d events applied, none for %v; goroutines:\n%s\n",
				cur, p.sent.Load(), stallTimeout, buf)
			p.stalled.Store(true)
			p.ing.Shutdown()
			return
		}
	}
}

// classifyAll is one POST /v1/classify with an empty body through the
// server's handler: every unknown domain, forest and lbp scores.
func (p *pipeline) classifyAll() (*server.ClassifyResponse, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader([]byte("{}")))
	rec := httptest.NewRecorder()
	p.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("classify-all: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp server.ClassifyResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("classify-all: decode reply: %w", err)
	}
	if resp.Stale {
		return nil, fmt.Errorf("classify-all: stale reply for graph version %d", resp.GraphVersion)
	}
	return &resp, nil
}

// counter reads one of the server's registered counters by name and
// label set (0 when absent).
func (p *pipeline) counter(name, labels string) float64 {
	for _, s := range p.reg.AppendSamples(nil) {
		if s.Name == name && s.Labels == labels {
			return s.Value
		}
	}
	return 0
}

// timedSource is the server.GraphSource of traced runs: it times every
// snapshot and keeps the last one, with its delta, for the mirrored
// layer calls.
type timedSource struct {
	ing *ingest.Ingester
	tr  *tracer

	last struct {
		g              *graph.Graph
		version, since uint64
		delta          graph.Delta
	}
}

func (s *timedSource) Snapshot() (*graph.Graph, uint64) {
	end := s.tr.begin("graph.snapshot")
	g, v := s.ing.Snapshot()
	end()
	return g, v
}

func (s *timedSource) SnapshotSince(since uint64) (*graph.Graph, uint64, graph.Delta) {
	end := s.tr.begin("graph.snapshot")
	g, v, d := s.ing.SnapshotSince(since)
	dur := end()
	s.tr.snapshot(dur, d)
	s.last.g, s.last.version, s.last.since, s.last.delta = g, v, since, d
	return g, v, d
}

func (s *timedSource) Day() int { return s.ing.Day() }

// copyDir copies the regular files under src to dst (created).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
