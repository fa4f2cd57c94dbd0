package main

import (
	"fmt"
	"time"

	"netwide"
	"netwide/internal/dataset"
	"netwide/internal/flowwire"
	"netwide/internal/scenario"
	"netwide/internal/server"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

// workload is one traffic mix the benchmark drives through the daemon.
type workload struct {
	name     string
	topology string
	format   flowwire.Format
	// stream is the detector configuration of both the daemon and the
	// reference replay it is checked against.
	stream netwide.StreamConfig
	// receivers/shards/http select the ingest tier and the status endpoint.
	receivers, shards int
	http              bool
	// pps > 0 makes the workload open loop: datagrams leave over loopback
	// UDP on a fixed schedule. 0 is closed loop through Server.IngestPacket.
	pps int
	// checkpointEvery > 0 enables snapshots and the kill/restore cycle.
	checkpointEvery int
	// grace is the daemon's reorder window in bins; 0 keeps the server
	// default of 1.
	grace int
}

// week is one week of five-minute bins.
const week = 7 * 288

var workloads = []workload{
	{
		name:     "replay-sync",
		topology: "abilene",
		format:   flowwire.FormatNetFlowV5,
		stream:   netwide.StreamConfig{TrainBins: week, BatchSize: 16},
	},
	{
		name:      "live-sharded",
		topology:  "geant",
		format:    flowwire.FormatIPFIX,
		stream:    netwide.StreamConfig{TrainBins: week, BatchSize: 16},
		receivers: 2,
		shards:    2,
		http:      true,
		pps:       10000,
		// At 10k datagrams/s a Géant bin lasts ~7 ms, so the default
		// one-bin window would let a receiver stalled for a few ms drop
		// its records as late. 32 bins (~220 ms) keeps the window well
		// above scheduler stalls, as one 5-minute bin does in production.
		grace: 32,
	},
	{
		name:            "restart-incremental",
		topology:        "abilene",
		format:          flowwire.FormatNetFlowV9,
		stream:          netwide.StreamConfig{TrainBins: week, BatchSize: 16, Updater: "incremental", Window: week},
		checkpointEvery: 12,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// daemonConfig is the server configuration the workload runs, with its
// checkpoint (if any) at path.
func (w workload) daemonConfig(path string) server.Config {
	cfg := server.Config{Receivers: w.receivers, Shards: w.shards, Grace: w.graceBins(), Stream: w.stream}
	if w.http {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	if w.checkpointEvery > 0 {
		cfg.CheckpointPath = path
		cfg.CheckpointEvery = w.checkpointEvery
	}
	return cfg
}

// graceBins is the daemon's reorder window in bins.
func (w workload) graceBins() int {
	if w.grace > 0 {
		return w.grace
	}
	return 1
}

// wire is a pre-encoded datagram stream covering bins [from, to): one
// export engine per origin PoP, exactly as a router fleet would send them.
type wire struct {
	dgrams [][]byte
	engine []uint32
	// first[b-from] is the index of bin b's first datagram; first[to-from]
	// is len(dgrams).
	first []int
	// recs[b-from] counts the flow records bin b carries.
	recs     []int
	from, to int
}

func (w *wire) binRange(b int) (int, int) { return w.first[b-w.from], w.first[b-w.from+1] }

// records sums the flow records of bins [b0, b1).
func (w *wire) records(b0, b1 int) int {
	n := 0
	for b := b0; b < b1; b++ {
		n += w.recs[b-w.from]
	}
	return n
}

// inputs is everything one run generates before it measures: the simulated
// network, the datagram streams, and the reference anomalies.
type inputs struct {
	run      *netwide.Run
	w        workload
	from, to int
	stream   *wire
	// resume is the restart workload's second half, encoded by freshly
	// started exporters: every record the final snapshot does not hold.
	resume    *wire
	half      int // restart: bins [from, half) are fed before the kill
	restoreAt int // restart: the last bin the final snapshot covers
	ref       []netwide.Anomaly
	simulateS float64
	encodeS   float64
}

// genInputs simulates the workload's network from seed and encodes the
// replayed bins. replayBins > 0 shortens the run (smoke mode): one week is
// simulated, the model trains on its head and the last replayBins bins are
// replayed.
func genInputs(w workload, seed uint64, replayBins int) (*inputs, error) {
	cfg := netwide.QuickConfig()
	cfg.Seed = seed
	cfg.Topology = w.topology
	cfg.Weeks = 2
	if replayBins > 0 {
		cfg.Weeks = 1
	}
	cfg.Scenario = anomalies(cfg.Weeks)
	t0 := time.Now()
	run, err := netwide.Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	in := &inputs{run: run, w: w, simulateS: time.Since(t0).Seconds()}
	in.from, in.to = week, run.Bins()
	if replayBins > 0 {
		in.from = run.Bins() - replayBins
		in.w.stream.TrainBins = in.from
	}
	t0 = time.Now()
	if in.stream, err = encode(run.Dataset(), w.format, in.from, in.to, held{}); err != nil {
		return nil, err
	}
	if w.checkpointEvery > 0 {
		in.half = in.from + (in.to-in.from)/2
		// Bin b closes when bin b+grace's first datagram arrives, and the
		// daemon snapshots after every checkpointEvery closes: feeding
		// [from, half) closes half-grace-from bins.
		closed := in.half - w.graceBins() - in.from
		in.restoreAt = in.from + closed/w.checkpointEvery*w.checkpointEvery - 1
		h, err := heldBySnapshot(in.stream, in.restoreAt+1)
		if err != nil {
			return nil, err
		}
		if in.resume, err = encode(run.Dataset(), w.format, in.restoreAt+1, in.to, h); err != nil {
			return nil, err
		}
	}
	in.encodeS = time.Since(t0).Seconds()
	if in.ref, err = reference(run, in.w.stream, in.from, in.to); err != nil {
		return nil, err
	}
	return in, nil
}

// anomalies is the injected anomaly population: the per-type counts of
// the default random schedule (anomaly.DefaultSchedule, per four weeks,
// scaled to the run), with targets, times and magnitudes drawn from a
// seed of the benchmark's own. The run seed then varies the traffic the
// anomalies ride on but not what is injected: under the default schedule
// the number of week-2 anomalies, and with it the detector's work, swings
// by half from seed to seed.
func anomalies(weeks int) *scenario.Scenario {
	sc := &scenario.Scenario{Name: "perfbench", Seed: 2004}
	for _, e := range []struct {
		kind  string
		per4w int
	}{
		{"alpha", 150}, {"dos", 36}, {"ddos", 12}, {"flash", 70}, {"scan", 60},
		{"worm", 3}, {"ptmult", 4}, {"outage", 3}, {"ingress-shift", 4},
	} {
		sc.Episodes = append(sc.Episodes, scenario.Episode{Type: e.kind, Count: max(1, e.per4w*weeks/4), StartBin: -1})
	}
	return sc
}

// held names records of bin from that a restored daemon already holds:
// the first n records engine exported in that bin.
type held struct{ engine, n int }

// heldBySnapshot returns what the restart workload's final snapshot holds
// of bin open. The daemon snapshots inside the IngestPacket call that
// closes the snapshot's last bin, which (grace 1) is the call carrying
// bin open's first datagram: that datagram's records ride in the
// snapshot's open bin. A resume that re-sent them from restarted
// exporters would count them twice, since their new sequence numbers
// defeat the dedupe ring.
func heldBySnapshot(w *wire, open int) (held, error) {
	reg, err := flowwire.NewRegistry()
	if err != nil {
		return held{}, err
	}
	// Decode from the start, since earlier datagrams carry the templates,
	// up to the first datagram of bin open with records: one without
	// records moves no watermark and closes nothing.
	first, end := w.binRange(open)
	var recs []flowwire.Record
	for j := 0; j < end; j++ {
		if _, recs, err = reg.Decode(w.dgrams[j], recs[:0]); err != nil {
			return held{}, fmt.Errorf("decode datagram %d: %w", j, err)
		}
		if j >= first && len(recs) > 0 {
			return held{engine: int(w.engine[j]), n: len(recs)}, nil
		}
	}
	return held{}, fmt.Errorf("bin %d carries no records", open)
}

// encode regenerates the resolved flow records of bins [from, to) and
// encodes them in format with fresh exporters, one per origin PoP, each
// flushed at the end of every bin so no datagram straddles two bins. The
// records skip names in bin from are left out.
func encode(ds *dataset.Dataset, format flowwire.Format, from, to int, skip held) (*wire, error) {
	var binTime uint32
	clock := func() (uint32, uint32) { return binTime, binTime }
	exps := make([]flowwire.Exporter, ds.Top.NumPoPs())
	for i := range exps {
		exp, err := flowwire.NewExporter(format, uint32(i), uint32(1/ds.Cfg.SamplingRate), clock)
		if err != nil {
			return nil, fmt.Errorf("exporter: %w", err)
		}
		exps[i] = exp
	}
	w := &wire{from: from, to: to}
	var addErr error
	for bin := from; bin < to; bin++ {
		binTime = uint32(bin) * traffic.BinSeconds
		w.first = append(w.first, len(w.dgrams))
		recs := 0
		skipped := 0
		for i := 0; i < ds.Top.NumODPairs(); i++ {
			od := ds.Top.ODAt(i)
			ds.ForEachResolvedRecord(od, bin, func(_ topology.ODPair, rec flowwire.Flow) {
				if bin == from && int(od.Origin) == skip.engine && skipped < skip.n {
					skipped++
					return
				}
				if addErr == nil {
					addErr = exps[od.Origin].Add(rec)
					recs++
				}
			})
		}
		if addErr != nil {
			return nil, fmt.Errorf("encode bin %d: %w", bin, addErr)
		}
		for e, exp := range exps {
			if err := exp.Flush(); err != nil {
				return nil, fmt.Errorf("encode bin %d: %w", bin, err)
			}
			for _, d := range exp.Drain() {
				w.dgrams = append(w.dgrams, d)
				w.engine = append(w.engine, uint32(e))
			}
		}
		w.recs = append(w.recs, recs)
	}
	w.first = append(w.first, len(w.dgrams))
	return w, nil
}

// reference characterizes bins [from, to) with a StreamDetector replay of
// the simulated matrices under the daemon's own stream configuration: what
// a lossless daemon must report.
func reference(run *netwide.Run, cfg netwide.StreamConfig, from, to int) ([]netwide.Anomaly, error) {
	det, err := run.NewStreamDetector(netwide.DefaultDetectOptions(), cfg)
	if err != nil {
		return nil, fmt.Errorf("reference detector: %w", err)
	}
	vs, err := det.Replay(from, to)
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	var out []netwide.Anomaly
	for _, v := range vs {
		out = append(out, v.Anomalies...)
	}
	return out, nil
}
