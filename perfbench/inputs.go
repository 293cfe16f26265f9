package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"segugio/internal/activity"
	"segugio/internal/core"
	"segugio/internal/dnsutil"
	"segugio/internal/eval"
	"segugio/internal/experiments"
	"segugio/internal/graph"
	"segugio/internal/intel"
	"segugio/internal/logio"
	"segugio/internal/pdns"
	"segugio/internal/trace"
)

// The training day, and the restart-live rounds' killed processes:
// one on each of the first restartDays stream days, started on that
// day, checkpointed after checkpointShare of it and killed killShare of
// the way from there to the day's live chunks.
const (
	trainDay        = 170
	restartDays     = 3
	checkpointShare = 0.5
	killShare       = 0.7
)

// scale is the make-up of one benchmark's inputs. The full scale is what
// the benchmark measures; the small scale is what its tests run.
type scale struct {
	// Universe and Population are the synthetic ISP's domains and
	// machines; buildInputs derives their seeds from the run's seed.
	Universe   trace.Config
	Population trace.Population
	// StreamDays are the days after trainDay the streams cover.
	// ingest-backfill resumes from each of them but the last and
	// replays the next; restart-live replays the first restartDays.
	StreamDays int
	// QueueDepth is each ingest ring's depth, and the most events one
	// window (a Consume call outside the live chunks) carries, so no
	// ring can fill and the `block` policy never parks the producer.
	QueueDepth int
	// ChunkEvents is the live chunk: one Consume call, then one
	// classify-all. A restart-live round ends with the stream day's last
	// LiveChunks chunks.
	ChunkEvents int
	LiveChunks  int
	// Variants is how many ISPs (populations of one universe) a run of
	// each workload generates from its seed. Each is one timed set-up;
	// rounds cycle through them, so a run's figures do not hang on one
	// population. At full scale a cycle then restarts on 8 graphs in
	// ingest-backfill (two resumed days an ISP) and 9 in restart-live
	// (three restart days an ISP).
	Variants map[string]int
}

// fullScale is the experiments' ISP1 (EXPERIMENTS.md, Table I) at a
// fifth of its machines: its domain universe, and its population's
// make-up (browsing breadth, infection rates, proxies, inactive
// machines, probers) with 4,800 active machines instead of 24,000, the
// 5K scale the pipeline was first checked at. A classify-all follows
// every 4,096 events in the live chunks: the snapshot cadence of the
// deployment mix in ROADMAP.md. At ISP1's full 25.5K machines a run fits
// one population-day, and its figures moved by 27-33% between seeds
// (README.md).
func fullScale() scale {
	pop := experiments.ISP1Population()
	pop.Machines, pop.Proxies, pop.Inactive, pop.Probers = 4800, 2, 300, 1
	return scale{
		Universe: experiments.UniverseParams(), Population: pop,
		StreamDays: 3, QueueDepth: 4096, ChunkEvents: 4096, LiveChunks: 4,
		Variants: map[string]int{wlBackfill: 4, wlRestartLive: 3},
	}
}

func smallScale() scale {
	pop := experiments.TestPopulation("SMALL", 0)
	pop.Machines = 300
	return scale{
		Universe: experiments.TestUniverseParams(0), Population: pop,
		StreamDays: 3, QueueDepth: 1024, ChunkEvents: 512, LiveChunks: 2,
		Variants: map[string]int{wlBackfill: 2, wlRestartLive: 2},
	}
}

// universe is the part of the inputs every ISP of a run shares: the
// domain universe's catalog and ground truth (blacklist, whitelist,
// passive-DNS abuse indexes, activity history). Its seed is the
// universe configuration's own.
type universe struct {
	cat        *trace.Catalog
	suffixes   *dnsutil.SuffixList
	bl         *intel.Blacklist
	wl         *intel.Whitelist
	trainAbuse *pdns.AbuseIndex
	abuse      *pdns.AbuseIndex
	// act is the F2 activity history, preloaded over every stream day the
	// way segugiod loads activity.tsv; ingest marks on top of it are then
	// idempotent, so one log serves every round and every reference.
	act *activity.Log
}

// inputs is one ISP generated from the seed before a run measures: its
// machine population, the detector trained on it, and its streams.
type inputs struct {
	*universe
	sc      scale
	seed    int64
	det     *core.Detector
	detPath string
	gen     *trace.Generator
	days    []int // the stream days
}

// events generates stream day d's events in stream order. The generator
// is deterministic, so set-up and the checks see the same events, and
// the inputs do not hold them on the heap while a run measures.
func (in *inputs) events(d int) []logio.Event {
	return dayEvents(in.gen.GenerateDay(in.days[d]), in.cat)
}

// labelSources is what both the live pipeline and the references label
// snapshots with.
func (in *inputs) labelSources(day int) graph.LabelSources {
	return graph.LabelSources{Blacklist: in.bl, Whitelist: in.wl, AsOf: day}
}

// buildUniverse generates the domain universe and its ground truth.
func buildUniverse(sc scale) (*universe, error) {
	cfg := sc.Universe
	cat, err := trace.NewCatalog(cfg)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	u := &universe{cat: cat, suffixes: dnsutil.DefaultSuffixList()}
	firstDay := trainDay + 1
	lastDay := trainDay + sc.StreamDays
	u.bl = cat.Blacklist(trace.BlacklistConfig{Coverage: 0.75, MeanListingDelayDays: 3, Salt: 1})
	arch := cat.RankArchive(trace.RankArchiveConfig{Days: 30, ListLen: 3 * cfg.BenignE2LDs / 4, JitterFraction: 0.02})
	u.wl, err = intel.BuildWhitelist(arch, intel.WhitelistConfig{ExcludeZones: cat.KnownFreeRegZones(0.6)})
	if err != nil {
		return nil, fmt.Errorf("whitelist: %w", err)
	}
	db := pdns.NewDB()
	cat.EmitPDNSHistory(db, trainDay-150, lastDay)
	verdict := func(asOf int) func(string) pdns.Verdict {
		return func(d string) pdns.Verdict {
			if u.bl.Contains(d, asOf) {
				return pdns.VerdictMalware
			}
			if u.wl.ContainsDomain(d, u.suffixes) {
				return pdns.VerdictBenign
			}
			return pdns.VerdictUnknown
		}
	}
	u.act = activity.NewLog()
	cat.MarkActivity(u.act, u.suffixes, trainDay-14, lastDay)
	u.trainAbuse = pdns.BuildAbuseIndex(db, trainDay-150, trainDay-1, verdict(trainDay))
	// The live pipeline scores the stream days against the passive-DNS
	// history before the first of them, as segugiod started on that day.
	u.abuse = pdns.BuildAbuseIndex(db, firstDay-150, firstDay-1, verdict(firstDay))
	return u, nil
}

// buildInputs generates the ISP's population for seed and trains a
// detector on the training day (saved to dir for server.OpenDetector).
func buildInputs(u *universe, sc scale, seed int64, dir string) (*inputs, error) {
	pop := sc.Population
	pop.Name, pop.Seed = "BENCH", seed
	in := &inputs{universe: u, sc: sc, seed: seed, gen: trace.NewGeneratorFor(u.cat, pop)}

	// Train on the training day: hold out 30% of the known domains,
	// calibrate the threshold at a 0.1% false-positive budget on them.
	tg := trace.BuildGraph(in.gen.GenerateDay(trainDay), u.cat, u.suffixes)
	rng := rand.New(rand.NewSource(seed))
	hidden := map[string]struct{}{}
	var valDomains []string
	var valLabels []int
	for d := int32(0); d < int32(tg.NumDomains()); d++ {
		name := tg.DomainName(d)
		isMal := u.bl.Contains(name, trainDay)
		isBen := u.wl.ContainsE2LD(tg.DomainE2LD(d))
		if (!isMal && !isBen) || rng.Float64() > 0.3 {
			continue
		}
		hidden[name] = struct{}{}
		valDomains = append(valDomains, name)
		if isMal {
			valLabels = append(valLabels, 1)
		} else {
			valLabels = append(valLabels, 0)
		}
	}
	tg.ApplyLabels(graph.LabelSources{Blacklist: u.bl, Whitelist: u.wl, AsOf: trainDay, Hidden: hidden})
	det, _, err := core.Train(core.DefaultConfig(), core.TrainInput{
		Graph: tg, Activity: u.act, Abuse: u.trainAbuse, Exclude: hidden,
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	dets, _, err := det.Classify(core.ClassifyInput{Graph: tg, Activity: u.act, Abuse: u.trainAbuse, Domains: valDomains})
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	scores := make(map[string]float64, len(dets))
	for _, d := range dets {
		scores[d.Domain] = d.Score
	}
	valScores := make([]float64, len(valDomains))
	for i, name := range valDomains {
		valScores[i] = scores[name]
	}
	curve, err := eval.ROC(valScores, valLabels)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	det.SetThreshold(eval.ThresholdAtFPR(curve, 0.001))
	in.det = det
	in.detPath = filepath.Join(dir, "detector.gob")
	var buf bytes.Buffer
	if err := core.SaveDetector(&buf, det); err != nil {
		return nil, fmt.Errorf("save detector: %w", err)
	}
	if err := os.WriteFile(in.detPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	for day := trainDay + 1; day <= trainDay+sc.StreamDays; day++ {
		in.days = append(in.days, day)
	}
	return in, nil
}

// dayEvents interleaves a day's traffic as segugiod sees it live: a
// domain's resolution rides with its first query.
func dayEvents(tr *trace.DayTrace, cat *trace.Catalog) []logio.Event {
	out := make([]logio.Event, 0, len(tr.Edges)+len(tr.Edges)/8)
	seen := map[int32]struct{}{}
	for _, e := range tr.Edges {
		name := cat.Name(e.Domain)
		if _, dup := seen[e.Domain]; !dup {
			seen[e.Domain] = struct{}{}
			out = append(out, logio.Event{Kind: logio.EventResolution, Day: tr.Day,
				Domain: name, IPs: cat.ResolveOn(tr.Day, e.Domain)})
		}
		out = append(out, logio.Event{Kind: logio.EventQuery, Day: tr.Day,
			Machine: tr.MachineIDs[e.Machine], Domain: name})
	}
	return out
}

// encodeChunks cuts events into pieces of at most size events, each
// encoded as a self-contained segb1 stream (magic, own symbol table).
func encodeChunks(events []logio.Event, size int) ([][]byte, error) {
	var out [][]byte
	var enc *logio.EventEncoder
	for lo := 0; lo < len(events); lo += size {
		hi := min(lo+size, len(events))
		var buf bytes.Buffer
		if enc == nil {
			enc = logio.NewEventEncoder(&buf)
		} else {
			enc.Reset(&buf)
		}
		for _, e := range events[lo:hi] {
			if err := enc.Encode(e); err != nil {
				return nil, fmt.Errorf("encode: %w", err)
			}
		}
		if err := enc.Flush(); err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}
