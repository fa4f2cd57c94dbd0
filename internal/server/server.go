// Package server is the live front door of the reproduction: a long-running
// ingest daemon that stands where the paper's collection infrastructure
// stood — between the routers exporting sampled flow telemetry and the
// subspace detector consuming OD-aggregated timebins.
//
// Every datagram takes one path, the ingest engine in shard.go. A
// receiver decodes it through its own flowwire.Registry — NetFlow v5,
// NetFlow v9, IPFIX and sFlow v5, detected by version word, with hostile
// bytes counted and dropped, never trusted — and routes the batch by
// export engine to the shard worker owning that engine's partition of the
// OD space. The worker deduplicates it by a per-(format, engine) sequence
// cursor honoring each format's own sequence semantics
// (flowwire.SequenceModel), applies the late, wild and stranded-watermark
// gates, resolves each record to an origin-destination PoP pair exactly
// as the offline pipeline does, and accumulates per-bin byte/packet/flow
// vectors. A coordinator advances the watermark; when the reorder grace
// window moves past a bin it seals every shard's slice of that bin,
// merges the slices into the dense OD vector (exact: the partition is by
// origin PoP, so each OD column is written by exactly one shard) and
// submits it to the one central StreamDetector. Scoring stays central
// because the subspace method is global: network-wide anomalies only
// appear in the full OD matrix. See DESIGN.md E18.
//
// With Receivers and Shards both 1 (the default) the engine runs inline:
// the receiver, the shard worker and the coordinator step all run on the
// goroutine that delivered the datagram, and no pipeline goroutine or
// channel exists. Otherwise the daemon binds a pool of SO_REUSEPORT
// receiver sockets (one shared socket where the platform lacks the
// option) and runs each shard worker and the coordinator on its own
// goroutine. Both schedules run the same code, so they bin the same
// traffic the same way.
//
// Batch parity: every per-record sum the server computes is an integer
// count below 2^53 folded into a float64, so the accumulated vectors are
// exact regardless of packet arrival order or shard interleaving; a
// replayed dataset therefore reproduces the generator's matrices bit for
// bit, and the daemon's characterized anomalies match the batch
// Characterize output on the same bins (the loopback end-to-end test pins
// this on both schedules).
//
// The HTTP side is deliberately small: healthz (liveness, 503 once the
// detector has recorded an error), stats (ingest counters as JSON,
// including a per-protocol breakdown and — when sharded — per-receiver
// and per-shard counters with channel-depth gauges) and anomalies (the
// characterized anomaly log as JSON). Each endpoint is served both under
// the versioned /api/v1/ prefix and at its original unversioned path.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/fault"
	"netwide/internal/flowwire"
	"netwide/internal/routing"
	"netwide/internal/topology"
)

// Config tunes an ingest daemon. The zero value listens on an ephemeral
// loopback UDP port with no HTTP endpoint.
type Config struct {
	// UDPAddr is the flow-export listen address (default "127.0.0.1:0";
	// the standard NetFlow port is 2055).
	UDPAddr string
	// Formats is the wire-format allowlist (nil or empty enables all four:
	// NetFlow v5, NetFlow v9, IPFIX, sFlow v5). A datagram in a disabled
	// format is counted as a bad packet and dropped.
	Formats []flowwire.Format
	// HTTPAddr is the status endpoint listen address ("" disables HTTP).
	HTTPAddr string
	// Epoch is the Unix time of bin 0: a record exported at UnixSecs lands
	// in bin (UnixSecs-Epoch)/300. Replayed datasets use Epoch 0 and stamp
	// headers with bin*300 directly.
	Epoch uint32
	// Grace is the reorder window in bins: a bin closes (and is submitted
	// to the detector) once a record arrives for a bin Grace or more bins
	// ahead of it, so packets delayed or reordered across a bin boundary
	// still land in their bin. Records for already-closed bins are counted
	// late and dropped. Default 1.
	Grace int
	// MaxAhead bounds how far ahead of the watermark a packet's bin may
	// claim to be (default 64 bins ≈ 5.3 hours). The bin timestamp is
	// attacker-controlled input that drives every bin close: without the
	// bound, one spoofed far-future datagram would force-close every open
	// bin with partial data and park the watermark where no legitimate bin
	// could ever close again. Packets beyond the bound are dropped and
	// counted (Stats.WildRecords). Values at or below Grace are raised to
	// 2*Grace: the bound must clear the reorder window, or a warm restart
	// (restored watermark Grace ahead of the resuming stream) would look
	// like a stranded watermark and discard restored bins.
	MaxAhead int
	// MaxOpenBins caps the accumulating (not yet closed) bins (default
	// 256; per shard when sharded). Records that would open a bin beyond
	// the cap are dropped and counted wild — bounding the daemon's memory
	// even against spoofed timestamps that scatter records across
	// arbitrary bins.
	MaxOpenBins int
	// ReadBuffer is the UDP socket receive buffer in bytes, applied to
	// every receiver socket (default 4MB — the sockets must absorb export
	// bursts while a bin close runs).
	ReadBuffer int
	// Receivers sizes the UDP receiver pool (default 1). With more than
	// one, the daemon binds that many sockets to the same address with
	// SO_REUSEPORT so the kernel spreads datagrams across them by flow
	// hash; on platforms without the option it falls back to one shared
	// socket drained by Receivers reader goroutines. Each receiver owns
	// its own decoder registry (and therefore its own v9/IPFIX template
	// cache — exporters resend templates periodically, so every receiver
	// converges on the set it needs).
	Receivers int
	// Shards sizes the binning tier (default 1): decoded batches are
	// routed by export engine to Shards workers, each owning a disjoint
	// hash-partition of the OD space with its own accumulators, dedupe
	// rings and sequence cursors; a central coordinator seals, merges and
	// submits closing bins to the single detector. With Receivers and
	// Shards both 1 the engine runs inline on the receiving goroutine;
	// with either above 1 the shard workers and the coordinator run on
	// their own goroutines. The binning rules are the same either way. The
	// shard count is part of the checkpoint fingerprint — restarting with
	// a different count cold-starts.
	Shards int
	// CheckpointPath enables crash-safe operation: the daemon periodically
	// snapshots its full recovery state (model generations, open events,
	// open bins, sequence cursors, watermark, anomaly ledger) to this file,
	// atomically, and New restores from it when it exists — falling back to
	// a cold start (with the reason on /stats) when the file is torn,
	// corrupt, from a different format version, or from a different
	// network model. "" disables checkpointing.
	CheckpointPath string
	// CheckpointEvery is the snapshot cadence in closed bins (default 1
	// when CheckpointPath is set): a snapshot is taken after every N bins
	// are closed and submitted. At the default every-bin cadence a restart
	// resumes at most one bin stale.
	CheckpointEvery int
	// CheckpointInterval adds a wall-clock snapshot timer (0 disables it):
	// a safety net for quiet periods when no bins close — e.g. the
	// exporters died — so the ledger and counters still reach disk.
	CheckpointInterval time.Duration
	// Clock drives the CheckpointInterval timer (default the wall clock;
	// chaos tests install a manual one).
	Clock fault.Clock
	// Faults, when non-nil, threads error injection through the checkpoint
	// write path and the detector's background refits. Nil in production.
	Faults *fault.Injector
	// Detect and Stream configure the underlying StreamDetector.
	Detect netwide.DetectOptions
	Stream netwide.StreamConfig
}

func (c Config) withDefaults() Config {
	if c.UDPAddr == "" {
		c.UDPAddr = "127.0.0.1:0"
	}
	if c.Grace <= 0 {
		c.Grace = 1
	}
	if c.MaxAhead <= 0 {
		c.MaxAhead = 64
	}
	// The wild-timestamp bound must clear the reorder window: after a warm
	// restart the restored watermark sits up to Grace bins ahead of where
	// the live stream resumes, and a MaxAhead at or below Grace would read
	// that as a stranded watermark — resetting it and discarding restored
	// open bins on every resume. Widening the bound is safe (it only
	// loosens a spoofing defense, never drops traffic); honoring a
	// too-small explicit value would break restarts silently.
	if c.MaxAhead <= c.Grace {
		c.MaxAhead = 2 * c.Grace
	}
	if c.MaxOpenBins <= 0 {
		c.MaxOpenBins = 256
	}
	if c.ReadBuffer <= 0 {
		c.ReadBuffer = 4 << 20
	}
	if c.Receivers <= 0 {
		c.Receivers = 1
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.CheckpointPath != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.Clock == nil {
		c.Clock = fault.WallClock{}
	}
	return c
}

// Stats is a snapshot of the daemon's ingest counters, shaped for the
// /stats JSON endpoint.
type Stats struct {
	// Packets counts datagrams received; BadPackets the subset rejected by
	// the decoder (truncated, bad version, hostile counts); Duplicates the
	// subset dropped by per-engine sequence replay detection.
	Packets    uint64 `json:"packets"`
	BadPackets uint64 `json:"bad_packets"`
	Duplicates uint64 `json:"duplicate_packets"`
	// Records counts decoded flow records accepted for aggregation.
	// LostRecords is the sequence-gap estimate of records dropped in
	// transit, summed over the formats whose sequence unit is a record
	// (NetFlow v5 flows, IPFIX data records); the per-protocol breakdown
	// carries every format's loss in its own unit. LateRecords arrived for
	// bins already closed; Unroutable records carried an unknown engine
	// identity or an unresolvable destination.
	Records     uint64 `json:"records"`
	LostRecords uint64 `json:"lost_records"`
	LateRecords uint64 `json:"late_records"`
	Unroutable  uint64 `json:"unroutable_records"`
	// Protocols breaks the ingest counters down per wire format; only
	// formats that have received at least one datagram appear.
	Protocols map[string]ProtoStats `json:"protocols,omitempty"`
	// WildRecords carried bin timestamps the daemon refused to trust: more
	// than MaxAhead bins past the watermark, or needing an open bin beyond
	// MaxOpenBins. WatermarkResets counts stranded-watermark recoveries
	// (a far-future first packet or exporter clock jump, re-anchored once
	// a quorum of routable traffic ran consistently below it).
	WildRecords     uint64 `json:"wild_records"`
	WatermarkResets uint64 `json:"watermark_resets"`
	// BinsClosed bins have been submitted to the detector; BinsOpen are
	// still accumulating. Watermark is the highest bin seen, LastClosed the
	// highest submitted.
	BinsClosed int `json:"bins_closed"`
	BinsOpen   int `json:"bins_open"`
	Watermark  int `json:"watermark"`
	LastClosed int `json:"last_closed"`
	// AlarmBins counts scored bins where any measure alarmed; Anomalies is
	// the running count of fully characterized anomalies.
	AlarmBins int `json:"alarm_bins"`
	Anomalies int `json:"anomalies"`
	// Generations is the per-measure model generation (B, P, F): the number
	// of completed background refits.
	Generations [dataset.NumMeasures]uint64 `json:"generations"`
	// ModelFreshness reports the per-measure model-lifecycle gauges (B, P,
	// F order): updater kind, generation, per-bin updates folded into the
	// current generation, bins since the last full (re)fit, and staleness
	// in bins. Present only when a model lifecycle is active (incremental
	// updater, or a refit cadence) — absent on a static-model daemon, so
	// that configuration's JSON surface stays byte-identical.
	ModelFreshness []FreshnessStat `json:"model_freshness,omitempty"`
	// Receivers and Shards break the ingest down across the pipeline
	// (absent on an inline 1×1 daemon): per-receiver datagram counters
	// and per-shard record counters with queue-depth gauges.
	// MergeQueueLen is the seal-reply queue depth between the shards and
	// the coordinator.
	Receivers     []ReceiverStats `json:"receivers,omitempty"`
	Shards        []ShardStats    `json:"shards,omitempty"`
	MergeQueueLen int             `json:"merge_queue_len,omitempty"`
	// Checkpointing state. CheckpointsWritten / CheckpointErrors count
	// snapshot attempts; LastCheckpointBin is the highest closed bin the
	// latest snapshot covers (-1 before the first). Restored reports this
	// process recovered from a snapshot covering bins through RestoredBin.
	// CheckpointFallbacks counts startups that found a snapshot but had to
	// cold-start instead (torn, corrupt, version skew, wrong fingerprint)
	// — the reason lands in RestoreErr. CheckpointErr carries the most
	// recent snapshot-write failure (a full disk shows up here, not as a
	// crash).
	CheckpointsWritten  uint64 `json:"checkpoints_written,omitempty"`
	CheckpointErrors    uint64 `json:"checkpoint_errors,omitempty"`
	LastCheckpointBin   int    `json:"last_checkpoint_bin"`
	Restored            bool   `json:"restored,omitempty"`
	RestoredBin         int    `json:"restored_bin,omitempty"`
	CheckpointFallbacks uint64 `json:"checkpoint_fallbacks,omitempty"`
	RestoreErr          string `json:"restore_err,omitempty"`
	CheckpointErr       string `json:"checkpoint_err,omitempty"`
	// Draining reports a shutdown in progress. Err carries the first FATAL
	// error — an ingest submit failure or a detector scoring failure ("",
	// and /healthz 200, when healthy). DegradedErr carries a background
	// refit failure: the daemon keeps serving correct verdicts on the
	// previous model generation, so it is reported without failing the
	// liveness probe.
	Draining    bool   `json:"draining"`
	Err         string `json:"err,omitempty"`
	DegradedErr string `json:"degraded_err,omitempty"`
}

// FreshnessStat is one measure lane's model-freshness gauges.
type FreshnessStat struct {
	// Measure is the lane's single-letter code ("B", "P", "F").
	Measure string `json:"measure"`
	// Updater is the lifecycle kind keeping the lane's model current
	// ("refit", "incremental").
	Updater string `json:"updater"`
	// Generation counts adopted full (re)fits; Updates counts per-bin
	// incremental folds into the current generation (0 under refit).
	Generation uint64 `json:"generation"`
	Updates    uint64 `json:"updates"`
	// BinsSinceCorrection is how many bins ago the last full (re)fit was
	// adopted; StalenessBins is how many observed bins the scoring model
	// has not absorbed — up to RefitEvery under the refit lifecycle, at
	// most 1 under the incremental one.
	BinsSinceCorrection int `json:"bins_since_correction"`
	StalenessBins       int `json:"staleness_bins"`
}

// ProtoStats is one wire format's slice of the ingest counters, keyed in
// Stats.Protocols by the format name ("netflow5", "netflow9", "ipfix",
// "sflow").
type ProtoStats struct {
	Packets    uint64 `json:"packets"`
	BadPackets uint64 `json:"bad_packets"`
	Duplicates uint64 `json:"duplicate_packets"`
	Records    uint64 `json:"records"`
	// LostUnits is the sequence-gap loss estimate in the format's own
	// sequence unit — flows for v5, export packets for v9, data records
	// for IPFIX, flow samples for sFlow — named by SeqUnit.
	LostUnits uint64 `json:"lost_units"`
	SeqUnit   string `json:"seq_unit"`
}

// ReceiverStats is one receiver socket's slice of the ingest counters.
type ReceiverStats struct {
	Packets    uint64 `json:"packets"`
	BadPackets uint64 `json:"bad_packets"`
	Bytes      uint64 `json:"bytes"`
}

// ShardStats is one binning shard's slice of the ingest counters plus its
// queue gauges: QueueLen/QueueCap expose the receiver→shard channel depth
// (a persistently full queue means the shard is the bottleneck);
// SealedThrough is the highest bin the shard has handed to the merge
// layer.
type ShardStats struct {
	Records       uint64 `json:"records"`
	Duplicates    uint64 `json:"duplicate_packets"`
	LateRecords   uint64 `json:"late_records"`
	WildRecords   uint64 `json:"wild_records"`
	Unroutable    uint64 `json:"unroutable_records"`
	BinsOpen      int    `json:"bins_open"`
	SealedThrough int    `json:"sealed_through"`
	QueueLen      int    `json:"queue_len"`
	QueueCap      int    `json:"queue_cap"`
}

// counters is the daemon's hot counter block. Everything here is mutated
// on the ingest path — by receivers, shard workers and the coordinator,
// concurrently when pipelined — and read lock-free by the /stats handler,
// so every field is atomic. The watermark and lastClosed gauges have a
// single writer (the coordinator); the rest are add-only except for the
// saturating loss refunds.
type counters struct {
	packets, badPackets, duplicates, records,
	lostRecords, lateRecords, unroutable,
	wildRecords, watermarkResets atomic.Uint64
	binsClosed, watermark, lastClosed atomic.Int64
}

// protoCounters is the internal mutable form of ProtoStats, held in a flat
// per-format array. The counters are shared across receivers and shards
// (a format is not shard-local), hence atomic.
type protoCounters struct {
	packets, badPackets, duplicates, records, lostUnits atomic.Uint64
}

// state snapshots the per-format counters, reporting whether any is
// nonzero (zero-valued formats are omitted from /stats and checkpoints).
func (p *protoCounters) state(f flowwire.Format) (checkpoint.ProtoState, bool) {
	ps := checkpoint.ProtoState{
		Format:     uint8(f),
		Packets:    p.packets.Load(),
		BadPackets: p.badPackets.Load(),
		Duplicates: p.duplicates.Load(),
		Records:    p.records.Load(),
		LostUnits:  p.lostUnits.Load(),
	}
	seen := ps.Packets != 0 || ps.BadPackets != 0 || ps.Duplicates != 0 || ps.Records != 0 || ps.LostUnits != 0
	return ps, seen
}

// satSub subtracts up to n from c, saturating at zero — the sequence
// refund path, where two concurrent refunds against a shared per-format
// counter must never wrap below zero.
func satSub(c *atomic.Uint64, n uint64) {
	for {
		cur := c.Load()
		sub := n
		if sub > cur {
			sub = cur
		}
		if c.CompareAndSwap(cur, cur-sub) {
			return
		}
	}
}

// binAcc accumulates one open timebin: the three per-OD vectors the
// detector scores. The slices are handed to the detector at close (which
// retains them), so a bin is never reused after submission.
type binAcc struct {
	bytes, packets, flows []float64
	records               uint64
}

// Server is a running ingest daemon. Construct with New (trains the
// detector), call Start (binds sockets, spawns the readers), and stop with
// Drain, which flushes every in-flight bin through the detector before
// returning — no accepted record is ever dropped by a shutdown.
type Server struct {
	cfg Config
	run *netwide.Run
	det *netwide.StreamDetector
	top *topology.Topology
	res *routing.Resolver

	conns   []*net.UDPConn
	httpLn  net.Listener
	httpSrv *http.Server

	readersWG  sync.WaitGroup
	consumerWG sync.WaitGroup

	// binsSinceCp counts bins closed since the last snapshot — the
	// bin-driven checkpoint cadence. Atomic because the coordinator
	// increments it while the checkpointer goroutine resets it.
	binsSinceCp atomic.Int64
	// cpTimerStop ends the wall-clock checkpoint timer goroutine.
	cpTimerStop chan struct{}
	timerWG     sync.WaitGroup

	// ledgerCond (on mu) wakes checkpoint capture when the verdict
	// consumer grows the anomaly ledger: a snapshot waits until the ledger
	// holds every anomaly emitted before its barrier.
	ledgerCond *sync.Cond

	ctr counters
	// proto is the per-format counter array behind Stats.Protocols
	// (index FormatUnknown stays zero; undetectable garbage only reaches
	// the global BadPackets).
	proto [flowwire.NumFormats]protoCounters

	// The ingest engine. See shard.go for the moving parts and DESIGN.md
	// E18 for the architecture. inline (Receivers and Shards both 1) runs
	// it on the ingest caller's goroutine; the channels and goroutine
	// handles below stay nil then.
	inline bool
	recvs  []*receiver
	shards []*shardWorker
	coord  coordinator
	// pauseMu is the ingest gate. Pipelined receivers hold its read side
	// per datagram; the inline engine holds its write side per datagram,
	// which serializes every caller into the one shard and coordinator. A
	// checkpoint capture takes the write side to freeze ingest.
	pauseMu   sync.RWMutex
	mergeCh   chan sealReply
	coordBell chan struct{}
	coordCtl  chan coordMsg
	coordDone chan struct{}
	shardWG   sync.WaitGroup
	// pendingObs is the highest bin any shard has accepted routable
	// traffic for (CAS-max); the coordinator folds it into the watermark.
	pendingObs atomic.Int64
	// resetReq/resetBin carry a shard's stranded-watermark quorum signal
	// to the coordinator.
	resetReq atomic.Bool
	resetBin atomic.Int64
	// cpMu serializes CheckpointNow captures against each other and
	// against the drain teardown; it is always taken before pauseMu.
	cpMu   sync.Mutex
	cpBell chan struct{}
	cpStop chan struct{}
	cpWG   sync.WaitGroup

	// mu guards everything below. It is never held across a detector
	// Submit: backpressure from the pipeline must not deadlock against the
	// verdict consumer (which takes mu to append anomalies) or block the
	// HTTP handlers.
	mu          sync.Mutex
	anoms       []netwide.Anomaly
	gens        [dataset.NumMeasures]uint64
	alarmBins   int
	cpWritten   uint64
	cpErrors    uint64
	lastCpBin   int
	restored    bool
	restoredBin int
	cpFallbacks uint64
	restoreErr  string
	cpErr       string
	started     bool
	draining    bool
	firstError  error
}

// shardOf maps an export engine to its binning shard. The engine is the
// origin PoP, and the OD index space is partitioned by origin, so routing
// whole engines keeps every OD column (and every sequence cursor) owned
// by exactly one shard. Fibonacci hashing spreads dense small engine IDs;
// the mapping is deterministic for a given shard count, which is what
// lets checkpointed shard state restore in place.
func (s *Server) shardOf(engine uint32) int {
	n := len(s.shards)
	if n <= 1 {
		return 0
	}
	return int(uint64(engine*0x9E3779B1) * uint64(n) >> 32)
}

// New trains one detector lane per traffic measure on the run (see
// netwide.StreamConfig — the paper-parity setup trains on the run's full
// matrices) and assembles the daemon around it. The run doubles as the
// daemon's network model: its topology resolves engine IDs and destination
// prefixes, its seasonal baselines classify the anomalies the detector
// finds. No sockets are bound until Start, but a pipelined daemon's
// workers start here so tests and benchmarks can drive ingest without a
// socket.
// New also attempts crash recovery when cfg.CheckpointPath names an
// existing snapshot: if the file verifies (checksum, version, fingerprint
// — including the shard count) the daemon resumes from it — restored
// models, reopened events, refilled open bins, sequence cursors,
// watermark, anomaly ledger — and is at most CheckpointEvery bins stale.
// A snapshot that fails any check triggers a cold start instead, with the
// reason on Stats.RestoreErr: a bad file on disk must never keep the
// collector down.
func New(run *netwide.Run, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cfg.Stream.Faults = cfg.Faults
	ds := run.Dataset()
	// The daemon resolves what actually arrives: unlike the generator's
	// resolver it simulates no resolution failures of its own (fraction 0),
	// so a replayed record resolves exactly as it did at generation time.
	res, err := routing.BuildResolver(ds.Top, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("server: build resolver: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		run:    run,
		top:    ds.Top,
		res:    res,
		inline: cfg.Receivers == 1 && cfg.Shards == 1,
	}
	s.ledgerCond = sync.NewCond(&s.mu)
	s.ctr.watermark.Store(-1)
	s.ctr.lastClosed.Store(-1)
	s.lastCpBin = -1
	if err := s.buildEngine(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}

	if cfg.CheckpointPath != "" {
		if st, err := checkpoint.ReadFile(cfg.CheckpointPath); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				// A snapshot exists but cannot be trusted: cold-start and
				// say why, rather than crash-loop on a bad file.
				s.cpFallbacks++
				s.restoreErr = err.Error()
			}
		} else if err := s.restore(st); err != nil {
			s.cpFallbacks++
			s.restoreErr = err.Error()
			s.det = nil // discard any partially built detector
			// Discard any template-cache state a partial restore left in
			// the registries: a cold start must not trust checkpoint bytes.
			for _, r := range s.recvs {
				r.reg, _ = flowwire.NewRegistry(cfg.Formats...)
			}
		}
	}
	if s.det == nil {
		det, err := run.NewStreamDetector(cfg.Detect, cfg.Stream)
		if err != nil {
			return nil, fmt.Errorf("server: train detector: %w", err)
		}
		s.det = det
	}
	s.startEngine()
	s.consumerWG.Add(1)
	go s.consumeVerdicts()
	return s, nil
}

// detectOpts returns the effective detector options (Config.Detect, with
// the zero value meaning the defaults — the same resolution New applies).
func (s *Server) detectOpts() netwide.DetectOptions {
	opts := s.cfg.Detect
	if opts.K == 0 {
		opts = netwide.DefaultDetectOptions()
	}
	return opts
}

// streamKind returns the effective model-lifecycle kind and drift-
// correction cadence: Config.Stream after the same zero-value defaulting
// netwide applies, because the raw config may be all-zero while the
// detector actually runs the defaults.
func (s *Server) streamKind() (engine.UpdaterKind, int) {
	eff := s.cfg.Stream.WithDefaults()
	kind, err := engine.ParseUpdaterKind(eff.Updater)
	if err != nil {
		// Unreachable once the detector constructor accepted the config;
		// fall back to the default kind to keep this accessor total.
		kind = engine.UpdaterRefit
	}
	return kind, eff.RefitEvery
}

// fingerprint checks that a snapshot was written by a daemon built around
// the same network model, detector configuration and shard layout as this
// one.
func (s *Server) fingerprint(st *checkpoint.State) error {
	ds := s.run.Dataset()
	opts := s.detectOpts()
	kind, _ := s.streamKind()
	switch {
	case st.Topology != ds.Top.Name:
		return fmt.Errorf("snapshot topology %q, daemon runs %q", st.Topology, ds.Top.Name)
	case st.ODPairs != ds.NumODPairs():
		return fmt.Errorf("snapshot has %d OD pairs, topology %q has %d", st.ODPairs, ds.Top.Name, ds.NumODPairs())
	case st.Measures != int(dataset.NumMeasures):
		return fmt.Errorf("snapshot has %d measures, want %d", st.Measures, dataset.NumMeasures)
	case st.K != opts.K || st.Alpha != opts.Alpha:
		return fmt.Errorf("snapshot detector (K=%d, alpha=%v), daemon configured (K=%d, alpha=%v)", st.K, st.Alpha, opts.K, opts.Alpha)
	case st.Epoch != s.cfg.Epoch:
		return fmt.Errorf("snapshot epoch %d, daemon epoch %d", st.Epoch, s.cfg.Epoch)
	case !slices.Equal(st.Formats, s.enabledFormats()):
		return fmt.Errorf("snapshot formats %v, daemon enables %v", st.Formats, s.enabledFormats())
	case st.Shards != len(s.shards):
		// Open bins and cursors are partitioned by engine hash under the
		// snapshot's shard count; a different layout cannot adopt them.
		return fmt.Errorf("snapshot captured with %d shards, daemon runs %d", st.Shards, len(s.shards))
	case st.Updater != string(kind):
		// Lane states embed lifecycle-specific payloads (refit windows vs
		// tracker vectors); a daemon running the other lifecycle cannot
		// adopt them.
		return fmt.Errorf("snapshot captured under the %q model lifecycle, daemon runs %q", st.Updater, kind)
	}
	return nil
}

// enabledFormats lists the receivers' enabled wire formats in
// wire-version order — checkpoint fingerprint material, since engine
// cursors and template caches only make sense under the same decoder set.
func (s *Server) enabledFormats() []uint8 {
	var out []uint8
	for _, f := range flowwire.AllFormats() {
		if s.recvs[0].reg.Enabled(f) {
			out = append(out, uint8(f))
		}
	}
	return out
}

// restore rebuilds the daemon's state from a verified snapshot. Every
// stored field is cross-validated before it is believed — the snapshot
// passed the checksum, but shape and invariants are this layer's job (the
// detector's own state validates inside RestoreStreamDetector). Any error
// leaves the caller to cold-start. Runs before the engine starts, so
// plain assignment into shard workers is safe.
func (s *Server) restore(st *checkpoint.State) error {
	if err := s.fingerprint(st); err != nil {
		return err
	}
	sv := &st.Server
	if uint64(len(st.Anomalies)) != st.Stream.Emitted {
		return fmt.Errorf("snapshot ledger holds %d anomalies, detector emitted %d: inconsistent snapshot", len(st.Anomalies), st.Stream.Emitted)
	}
	if st.Stream.Started {
		if sv.LastClosed != st.Stream.LastBin {
			return fmt.Errorf("snapshot last closed bin %d disagrees with detector cursor %d", sv.LastClosed, st.Stream.LastBin)
		}
	} else if sv.LastClosed != -1 {
		return fmt.Errorf("snapshot closed bins through %d but detector never started", sv.LastClosed)
	}
	if len(sv.Shards) != len(s.shards) {
		return fmt.Errorf("snapshot holds %d shard states, daemon runs %d shards", len(sv.Shards), len(s.shards))
	}
	p := s.top.NumODPairs()
	shBins := make([]map[int]*binAcc, len(sv.Shards))
	shSeq := make([]map[engineKey]*engineSeq, len(sv.Shards))
	for i := range sv.Shards {
		ss := &sv.Shards[i]
		if ss.SealedThrough < sv.LastClosed {
			return fmt.Errorf("snapshot shard %d sealed through %d, behind last closed %d", i, ss.SealedThrough, sv.LastClosed)
		}
		if len(ss.OpenBins) > s.cfg.MaxOpenBins {
			return fmt.Errorf("snapshot shard %d holds %d open bins, cap is %d", i, len(ss.OpenBins), s.cfg.MaxOpenBins)
		}
		bins := make(map[int]*binAcc, len(ss.OpenBins))
		for _, ob := range ss.OpenBins {
			if ob.Bin <= ss.SealedThrough {
				return fmt.Errorf("snapshot shard %d open bin %d at or behind its seal point %d", i, ob.Bin, ss.SealedThrough)
			}
			if len(ob.Bytes) != p || len(ob.Packets) != p || len(ob.Flows) != p {
				return fmt.Errorf("snapshot open bin %d vectors sized (%d,%d,%d), want %d", ob.Bin, len(ob.Bytes), len(ob.Packets), len(ob.Flows), p)
			}
			for _, vec := range [][]float64{ob.Bytes, ob.Packets, ob.Flows} {
				for _, v := range vec {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						return fmt.Errorf("snapshot open bin %d carries non-finite or negative traffic", ob.Bin)
					}
				}
			}
			if bins[ob.Bin] != nil {
				return fmt.Errorf("snapshot shard %d lists open bin %d twice", i, ob.Bin)
			}
			bins[ob.Bin] = &binAcc{
				bytes:   append([]float64(nil), ob.Bytes...),
				packets: append([]float64(nil), ob.Packets...),
				flows:   append([]float64(nil), ob.Flows...),
				records: ob.Records,
			}
		}
		if len(ss.Engines) > maxEngineCursors {
			return fmt.Errorf("snapshot shard %d holds %d engine cursors, cap is %d", i, len(ss.Engines), maxEngineCursors)
		}
		seq := make(map[engineKey]*engineSeq, len(ss.Engines))
		for _, es := range ss.Engines {
			f := flowwire.Format(es.Format)
			if f == flowwire.FormatUnknown || f >= flowwire.NumFormats || !s.recvs[0].reg.Enabled(f) {
				return fmt.Errorf("snapshot engine cursor for unknown or disabled format %d", es.Format)
			}
			if s.shardOf(es.ID) != i {
				return fmt.Errorf("snapshot shard %d holds cursor for engine %d, which hashes to shard %d", i, es.ID, s.shardOf(es.ID))
			}
			key := engineKey{f, es.ID}
			if seq[key] != nil {
				return fmt.Errorf("snapshot lists engine %v/%d twice", f, es.ID)
			}
			if len(es.Recent) > dedupeWindow || es.Pos < 0 || es.Pos >= dedupeWindow {
				return fmt.Errorf("snapshot engine %v/%d dedupe ring out of shape (%d entries, pos %d)", f, es.ID, len(es.Recent), es.Pos)
			}
			e := &engineSeq{started: true, next: es.Next, fill: len(es.Recent), pos: es.Pos}
			copy(e.recent[:], es.Recent)
			seq[key] = e
		}
		shBins[i], shSeq[i] = bins, seq
	}
	type protoVals struct{ packets, badPackets, duplicates, records, lostUnits uint64 }
	var proto [flowwire.NumFormats]protoVals
	protoSeen := map[uint8]bool{}
	for _, ps := range sv.Protocols {
		f := flowwire.Format(ps.Format)
		if f == flowwire.FormatUnknown || f >= flowwire.NumFormats {
			return fmt.Errorf("snapshot protocol counters for unknown format %d", ps.Format)
		}
		if protoSeen[ps.Format] {
			return fmt.Errorf("snapshot lists protocol %v twice", f)
		}
		protoSeen[ps.Format] = true
		proto[f] = protoVals{ps.Packets, ps.BadPackets, ps.Duplicates, ps.Records, ps.LostUnits}
	}
	tmpl := map[flowwire.Format][]flowwire.TemplateSnapshot{}
	for _, ts := range sv.Templates {
		f := flowwire.Format(ts.Format)
		if f != flowwire.FormatNetFlowV9 && f != flowwire.FormatIPFIX {
			return fmt.Errorf("snapshot template for non-template format %d", ts.Format)
		}
		fields := make([]flowwire.FieldSpec, len(ts.Fields))
		for i, fd := range ts.Fields {
			fields[i] = flowwire.FieldSpec{ID: fd.ID, Enterprise: fd.Enterprise, Length: fd.Length}
		}
		tmpl[f] = append(tmpl[f], flowwire.TemplateSnapshot{
			Source: ts.Source, ID: ts.ID, Scope: ts.Scope, Fields: fields,
		})
	}
	// The registries revalidate every definition exactly like a hostile
	// wire template; a failure here (or below) makes New rebuild them, so
	// a partially restored cache never survives into a cold start. Every
	// receiver gets the full set — the kernel may hash any engine's
	// packets to any socket.
	for f, snaps := range tmpl {
		for _, r := range s.recvs {
			if err := r.reg.RestoreTemplates(f, snaps); err != nil {
				return fmt.Errorf("snapshot template restore (%v): %w", f, err)
			}
		}
	}

	det, err := s.run.RestoreStreamDetector(st.Stream, s.cfg.Stream)
	if err != nil {
		return err
	}
	s.det = det
	for i, w := range s.shards {
		w.bins = shBins[i]
		w.seq = shSeq[i]
		w.sealedThrough = sv.Shards[i].SealedThrough
		w.behindStreak = sv.Shards[i].BehindStreak
		w.binsOpen.Store(int64(len(w.bins)))
		w.sealed.Store(int64(w.sealedThrough))
	}
	for f := flowwire.Format(1); f < flowwire.NumFormats; f++ {
		pv := proto[f]
		s.proto[f].packets.Store(pv.packets)
		s.proto[f].badPackets.Store(pv.badPackets)
		s.proto[f].duplicates.Store(pv.duplicates)
		s.proto[f].records.Store(pv.records)
		s.proto[f].lostUnits.Store(pv.lostUnits)
	}
	s.anoms = append([]netwide.Anomaly(nil), st.Anomalies...)
	s.ctr.packets.Store(sv.Packets)
	s.ctr.badPackets.Store(sv.BadPackets)
	s.ctr.duplicates.Store(sv.Duplicates)
	s.ctr.records.Store(sv.Records)
	s.ctr.lostRecords.Store(sv.LostRecords)
	s.ctr.lateRecords.Store(sv.LateRecords)
	s.ctr.unroutable.Store(sv.Unroutable)
	s.ctr.wildRecords.Store(sv.WildRecords)
	s.ctr.watermarkResets.Store(sv.WatermarkResets)
	s.ctr.binsClosed.Store(int64(sv.BinsClosed))
	s.ctr.watermark.Store(int64(sv.Watermark))
	s.ctr.lastClosed.Store(int64(sv.LastClosed))
	s.alarmBins = sv.AlarmBins
	s.restored = true
	s.restoredBin = sv.LastClosed
	s.lastCpBin = sv.LastClosed
	return nil
}

// persist takes one snapshot around the caller-supplied assembler: barrier
// the detector, wait for the anomaly ledger to catch up to the barrier,
// assemble the on-disk state (under mu; the caller guarantees the ingest
// state it reads is frozen — see capture), and atomically replace the
// snapshot file. Write failures (a full disk, an injected fault) are
// counted and surfaced on /stats, never fatal: the daemon keeps
// collecting, one snapshot staler.
func (s *Server) persist(assemble func(netwide.StreamCheckpoint) *checkpoint.State) error {
	cp, err := s.det.Checkpoint()
	if err == nil {
		s.mu.Lock()
		// The barrier guarantees every pre-barrier verdict has been
		// delivered to the consumer; wait for the consumer to fold them in
		// so the snapshot's ledger is exactly the pre-barrier set.
		for uint64(len(s.anoms)) < cp.Emitted {
			s.ledgerCond.Wait()
		}
		st := assemble(cp)
		s.mu.Unlock()
		err = checkpoint.WriteFile(s.cfg.CheckpointPath, st, s.cfg.Faults)
	}
	s.mu.Lock()
	if err != nil {
		s.cpErrors++
		s.cpErr = err.Error()
	} else {
		s.cpWritten++
		s.lastCpBin = int(s.ctr.lastClosed.Load())
		s.cpErr = ""
	}
	s.mu.Unlock()
	if err == nil {
		s.binsSinceCp.Store(0)
	}
	return err
}

// baseState assembles the snapshot fields outside the shard states:
// fingerprint, counters, per-protocol breakdown and the anomaly ledger as
// of the detector barrier. Callers hold mu (via persist).
func (s *Server) baseState(cp netwide.StreamCheckpoint) *checkpoint.State {
	ds := s.run.Dataset()
	opts := s.detectOpts()
	kind, _ := s.streamKind()
	st := &checkpoint.State{
		Topology:  ds.Top.Name,
		ODPairs:   ds.NumODPairs(),
		Measures:  int(dataset.NumMeasures),
		K:         opts.K,
		Alpha:     opts.Alpha,
		Epoch:     s.cfg.Epoch,
		Formats:   s.enabledFormats(),
		Shards:    len(s.shards),
		Updater:   string(kind),
		Stream:    cp,
		Anomalies: append([]netwide.Anomaly(nil), s.anoms[:cp.Emitted]...),
	}
	sv := &st.Server
	sv.Packets = s.ctr.packets.Load()
	sv.BadPackets = s.ctr.badPackets.Load()
	sv.Duplicates = s.ctr.duplicates.Load()
	sv.Records = s.ctr.records.Load()
	sv.LostRecords = s.ctr.lostRecords.Load()
	sv.LateRecords = s.ctr.lateRecords.Load()
	sv.Unroutable = s.ctr.unroutable.Load()
	sv.WildRecords = s.ctr.wildRecords.Load()
	sv.WatermarkResets = s.ctr.watermarkResets.Load()
	sv.BinsClosed = int(s.ctr.binsClosed.Load())
	sv.Watermark = int(s.ctr.watermark.Load())
	sv.LastClosed = int(s.ctr.lastClosed.Load())
	sv.AlarmBins = s.alarmBins
	for f := flowwire.Format(1); f < flowwire.NumFormats; f++ {
		if ps, seen := s.proto[f].state(f); seen {
			sv.Protocols = append(sv.Protocols, ps)
		}
	}
	return st
}

// state deep-copies the worker's in-flight partition state into its
// checkpoint form: open bins sorted by bin, started engine cursors in
// (format, engine) order.
func (w *shardWorker) state() checkpoint.ShardState {
	sh := checkpoint.ShardState{SealedThrough: w.sealedThrough, BehindStreak: w.behindStreak}
	sh.OpenBins = make([]checkpoint.OpenBin, 0, len(w.bins))
	for bin, acc := range w.bins {
		sh.OpenBins = append(sh.OpenBins, checkpoint.OpenBin{
			Bin:     bin,
			Records: acc.records,
			Bytes:   append([]float64(nil), acc.bytes...),
			Packets: append([]float64(nil), acc.packets...),
			Flows:   append([]float64(nil), acc.flows...),
		})
	}
	sort.Slice(sh.OpenBins, func(i, j int) bool { return sh.OpenBins[i].Bin < sh.OpenBins[j].Bin })
	keys := make([]engineKey, 0, len(w.seq))
	for k, e := range w.seq {
		if e.started {
			keys = append(keys, k)
		}
	}
	// The map iterates in random order; the snapshot must not.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].format != keys[j].format {
			return keys[i].format < keys[j].format
		}
		return keys[i].engine < keys[j].engine
	})
	for _, k := range keys {
		e := w.seq[k]
		// recent[:fill] is exactly the valid ring entries: the ring fills
		// from slot 0 and pos only wraps once fill reaches the window.
		sh.Engines = append(sh.Engines, checkpoint.EngineState{
			Format: uint8(k.format),
			ID:     k.engine,
			Next:   e.next,
			Recent: append([]uint32(nil), e.recent[:e.fill]...),
			Pos:    e.pos,
		})
	}
	return sh
}

// templatesOf snapshots the v9/IPFIX template caches of the given
// registries, deduplicated by (format, source, template ID) — with
// multiple receivers, several registries typically hold the same
// definitions. Template caches are decode state a mid-stream restart
// cannot relearn until the exporters resend, so they checkpoint too.
func templatesOf(regs ...*flowwire.Registry) []checkpoint.TemplateState {
	type tmplKey struct {
		f   flowwire.Format
		src uint32
		id  uint16
	}
	seen := map[tmplKey]bool{}
	var out []checkpoint.TemplateState
	for _, reg := range regs {
		for _, f := range []flowwire.Format{flowwire.FormatNetFlowV9, flowwire.FormatIPFIX} {
			for _, ts := range reg.TemplateSnapshots(f) {
				k := tmplKey{f, ts.Source, ts.ID}
				if seen[k] {
					continue
				}
				seen[k] = true
				fields := make([]checkpoint.TemplateField, len(ts.Fields))
				for i, fd := range ts.Fields {
					fields[i] = checkpoint.TemplateField{ID: fd.ID, Enterprise: fd.Enterprise, Length: fd.Length}
				}
				out = append(out, checkpoint.TemplateState{
					Format: uint8(f),
					Source: ts.Source,
					ID:     ts.ID,
					Scope:  ts.Scope,
					Fields: fields,
				})
			}
		}
	}
	return out
}

// CheckpointNow takes a snapshot immediately, outside the bin-driven
// cadence — the wall-clock timer's entry point, also callable by tests and
// operators. It fails when checkpointing is disabled or a drain is in
// progress (the drain takes its own final snapshot).
func (s *Server) CheckpointNow() error {
	if s.cfg.CheckpointPath == "" {
		return errors.New("server: checkpointing disabled (no CheckpointPath)")
	}
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return errors.New("server: draining; the drain writes the final checkpoint")
	}
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	return s.capture()
}

// checkpointTimer snapshots every CheckpointInterval of wall-clock time —
// the safety net for quiet periods when no bins close and the bin-driven
// cadence therefore never fires.
func (s *Server) checkpointTimer(stop chan struct{}) {
	defer s.timerWG.Done()
	ticks, stopTicker := s.cfg.Clock.Ticker(s.cfg.CheckpointInterval)
	defer stopTicker()
	for {
		select {
		case <-stop:
			return
		case <-ticks:
			s.CheckpointNow() // failures land on Stats; draining is declined
		}
	}
}

// consumeVerdicts drains the detector's verdict stream for the daemon's
// lifetime, folding characterized anomalies and alarm counts into the
// served state. It exits when the stream closes (after Drain).
func (s *Server) consumeVerdicts() {
	defer s.consumerWG.Done()
	for v := range s.det.Verdicts() {
		s.mu.Lock()
		if v.Alarm() {
			s.alarmBins++
		}
		s.gens = v.Generations
		s.anoms = append(s.anoms, v.Anomalies...)
		s.ledgerCond.Broadcast()
		s.mu.Unlock()
	}
	tail := s.det.TailAnomalies()
	s.mu.Lock()
	s.anoms = append(s.anoms, tail...)
	s.ledgerCond.Broadcast()
	s.mu.Unlock()
}

// Start binds the UDP and HTTP sockets and launches the reader goroutines.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return errors.New("server: already started")
	}
	if err := s.bindSockets(); err != nil {
		return err
	}
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			for _, c := range s.conns {
				c.Close()
			}
			s.conns = nil
			return fmt.Errorf("server: listen http: %w", err)
		}
		s.httpLn = ln
		mux := http.NewServeMux()
		// Every endpoint lives under the versioned /api/v1/ prefix; the
		// original unversioned paths remain as aliases so existing probes
		// and dashboards keep working.
		for _, p := range []string{"/api/v1/healthz", "/healthz"} {
			mux.HandleFunc(p, s.handleHealthz)
		}
		for _, p := range []string{"/api/v1/stats", "/stats"} {
			mux.HandleFunc(p, s.handleStats)
		}
		for _, p := range []string{"/api/v1/anomalies", "/anomalies"} {
			mux.HandleFunc(p, s.handleAnomalies)
		}
		// The status port faces the same network as the flow socket, so
		// it gets the same hostile-input posture: a client that dribbles a
		// header, stalls mid-request or parks an idle connection must not
		// pin a daemon goroutine forever.
		srv := &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			IdleTimeout:       60 * time.Second,
		}
		s.httpSrv = srv
		go func() {
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.fail(fmt.Errorf("server: http: %w", err))
			}
		}()
	}
	if s.cfg.CheckpointPath != "" && s.cfg.CheckpointInterval > 0 {
		s.cpTimerStop = make(chan struct{})
		s.timerWG.Add(1)
		go s.checkpointTimer(s.cpTimerStop)
	}
	s.started = true
	for i, r := range s.recvs {
		r.conn = s.conns[i%len(s.conns)]
	}
	s.readersWG.Add(len(s.recvs))
	for _, r := range s.recvs {
		go s.receiverLoop(r)
	}
	return nil
}

// bindSockets binds the receiver sockets: one plain socket with a single
// receiver; Receivers SO_REUSEPORT sockets on the same address when the
// platform supports the option (the kernel then spreads datagrams across
// them by flow hash); one shared socket drained by every receiver
// goroutine otherwise.
func (s *Server) bindSockets() error {
	n := 1
	if reusePortSupported {
		n = s.cfg.Receivers
	}
	if n <= 1 {
		addr, err := net.ResolveUDPAddr("udp", s.cfg.UDPAddr)
		if err != nil {
			return fmt.Errorf("server: udp addr: %w", err)
		}
		conn, err := net.ListenUDP("udp", addr)
		if err != nil {
			return fmt.Errorf("server: listen udp: %w", err)
		}
		// Best effort: the kernel may clamp to rmem_max, which still beats
		// the default. A too-small buffer shows up as LostRecords, not
		// silence.
		_ = conn.SetReadBuffer(s.cfg.ReadBuffer)
		s.conns = []*net.UDPConn{conn}
		return nil
	}
	conns := make([]*net.UDPConn, 0, n)
	first, err := listenReusePort(s.cfg.UDPAddr)
	if err != nil {
		return fmt.Errorf("server: listen udp (reuseport): %w", err)
	}
	conns = append(conns, first)
	// The configured address may carry port 0; the remaining sockets must
	// bind the port the kernel actually picked.
	actual := first.LocalAddr().String()
	for i := 1; i < n; i++ {
		c, err := listenReusePort(actual)
		if err != nil {
			for _, pc := range conns {
				pc.Close()
			}
			return fmt.Errorf("server: listen udp (reuseport %d/%d): %w", i+1, n, err)
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		_ = c.SetReadBuffer(s.cfg.ReadBuffer)
	}
	s.conns = conns
	return nil
}

// UDPAddr returns the bound flow-export listen address (nil before Start).
func (s *Server) UDPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.conns) == 0 {
		return nil
	}
	return s.conns[0].LocalAddr()
}

// HTTPAddr returns the bound status endpoint address (nil before Start or
// when HTTP is disabled).
func (s *Server) HTTPAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// IngestPacket runs one datagram through receiver 0 — the socket's own
// path, for tests and benchmarks that drive the daemon without one. On an
// inline daemon the datagram is decoded, binned, and every bin it closes
// submitted (and checkpointed at the cadence) before IngestPacket
// returns; concurrent callers serialize. On a pipelined daemon the
// accumulation happens asynchronously on the shard workers, and the
// caller must not share receiver 0 with a live socket reader.
func (s *Server) IngestPacket(pkt []byte) {
	s.ingestOn(s.recvs[0], pkt)
}

const (
	// dedupeWindow is how many recent packet sequence numbers each engine
	// remembers for exact duplicate detection. A replayed packet older
	// than the window slips through — the window trades a little replay
	// protection for not discarding merely-reordered traffic.
	dedupeWindow = 64
	// reorderTolerance is how far (in the stream's sequence units) behind
	// the cursor a packet may fall and still be network reordering;
	// anything further back is an exporter restart and resets the cursor,
	// so a spoofed wild sequence number can never permanently wedge an
	// engine's stream.
	reorderTolerance = 1 << 20
	// maxEngineCursors caps each sequence-cursor map (one per shard). The
	// v9/IPFIX exporter identity is a 32-bit field in attacker-influenced
	// packets; beyond the cap, packets from new streams are accepted
	// without sequence accounting rather than growing daemon memory
	// without bound.
	maxEngineCursors = 4096
)

// engineKey identifies one export stream. Sequence spaces are independent
// per wire format — a v5 engine 3 and an IPFIX observation domain 3 are
// different streams — so the format is part of the identity.
type engineKey struct {
	format flowwire.Format
	engine uint32
}

// sequenceCheck updates the batch's per-stream sequence state and reports
// whether the packet should be ingested, honoring the batch's own sequence
// semantics: the cursor advances by SeqAdvance units of SeqModel's unit
// (flows, packets, records or samples), and a gap ahead of the cursor is
// that many units lost in transit — credited to the stream's format in
// Stats.Protocols, and folded into the global LostRecords only when the
// unit is a record (v5, IPFIX). A batch behind the cursor is, in order of
// precedence: a replayed duplicate if its sequence number was recently
// seen (dropped — counting it twice would corrupt the bin); plain network
// reordering if it is within reorderTolerance (accepted, and the loss the
// earlier gap charged for it is refunded); otherwise an exporter restart,
// which resets the cursor. Batches without sequence information (SeqNone)
// pass through untracked. The seq map is the calling shard worker's own
// single-threaded state; the loss counters it touches are shared and
// atomic.
func (s *Server) sequenceCheck(seq map[engineKey]*engineSeq, b flowwire.Batch) bool {
	if b.SeqModel == flowwire.SeqNone {
		return true
	}
	key := engineKey{b.Format, b.Engine}
	e := seq[key]
	if e == nil {
		if len(seq) >= maxEngineCursors {
			return true // accept, untracked: see maxEngineCursors
		}
		e = &engineSeq{}
		seq[key] = e
	}
	pc := &s.proto[b.Format]
	countsRecords := b.SeqModel.CountsRecords()
	if !e.started {
		e.started = true
		e.next = b.Seq + b.SeqAdvance
		e.remember(b.Seq)
		return true
	}
	delta := int32(b.Seq - e.next) // uint32 arithmetic handles wraparound
	switch {
	case delta >= 0:
		if delta > reorderTolerance {
			// A forward jump too wild to be transit loss is the same event
			// as the backward one: an exporter restart (or a spoofed
			// sequence) — resynchronize rather than charging a phantom
			// multi-billion-unit gap to the loss counters.
			e.clear()
		} else {
			pc.lostUnits.Add(uint64(delta))
			if countsRecords {
				s.ctr.lostRecords.Add(uint64(delta))
			}
		}
		e.next = b.Seq + b.SeqAdvance
	case e.seen(b.Seq):
		return false
	case delta >= -reorderTolerance:
		// Reordered delivery: the gap this batch left was already counted
		// lost when its successor arrived first, so refund it. The cursor
		// stays where the stream's front is. The refund saturates — with
		// shards, another stream sharing the format counter may have
		// refunded first.
		satSub(&pc.lostUnits, uint64(b.SeqAdvance))
		if countsRecords {
			satSub(&s.ctr.lostRecords, uint64(b.SeqAdvance))
		}
	default:
		// Exporter restart (or a spoofed wild sequence): resynchronize.
		e.next = b.Seq + b.SeqAdvance
		e.clear()
	}
	e.remember(b.Seq)
	return true
}

// accumulateInto folds one packet's records into its bin's vectors in the
// given open-bin set, resolving each record to an OD pair: origin from the
// engine ID, egress by longest-prefix match on the anonymized destination
// — the same procedure, and therefore the same (OD, bin) cell, as the
// offline generator. It returns how many records were folded in and how
// many were unroutable or wild (cap overflow); the caller folds those into
// the counters it owns. A packet that contributes nothing must not advance
// the watermark. The bins map is the caller's single-threaded state; the
// topology and resolver lookups are read-only and safe from every shard.
func (s *Server) accumulateInto(bins map[int]*binAcc, bin int, b flowwire.Batch, recs []flowwire.Record) (accepted, unroutable, wild int) {
	origin := topology.PoP(b.Engine)
	originOK := s.top.ContainsPoP(origin)
	acc := bins[bin]
	for _, rec := range recs {
		if !originOK {
			unroutable++
			continue
		}
		egress, ok := s.res.ResolveDst(rec.Dst)
		if !ok {
			unroutable++
			continue
		}
		if acc == nil {
			// Open the bin lazily, on the first routable record, and under
			// a cap: unroutable or wild garbage must not grow the open set.
			if len(bins) >= s.cfg.MaxOpenBins {
				wild++
				continue
			}
			p := s.top.NumODPairs()
			acc = &binAcc{
				bytes:   make([]float64, p),
				packets: make([]float64, p),
				flows:   make([]float64, p),
			}
			bins[bin] = acc
		}
		col := s.top.Index(topology.ODPair{Origin: origin, Dest: egress})
		acc.bytes[col] += float64(rec.Bytes)
		acc.packets[col] += float64(rec.Packets)
		// Flow-export records each carry one flow (Flows == 1), keeping
		// bit-for-bit parity with the v5-era `flows[col]++`; sFlow samples
		// estimate flow counts, and the estimate rides the same field.
		acc.flows[col] += float64(rec.Flows)
		acc.records++
		accepted++
	}
	return accepted, unroutable, wild
}

// engineSeq is one export stream's sequence cursor plus a small ring of
// recently seen packet sequence numbers for duplicate detection.
type engineSeq struct {
	next    uint32
	started bool
	recent  [dedupeWindow]uint32
	fill    int // entries of recent in use
	pos     int // next ring slot to overwrite
}

func (e *engineSeq) remember(seq uint32) {
	e.recent[e.pos] = seq
	e.pos = (e.pos + 1) % dedupeWindow
	if e.fill < dedupeWindow {
		e.fill++
	}
}

func (e *engineSeq) seen(seq uint32) bool {
	for i := 0; i < e.fill; i++ {
		if e.recent[i] == seq {
			return true
		}
	}
	return false
}

func (e *engineSeq) clear() { e.fill, e.pos = 0, 0 }

// submittedBin pairs a detached accumulator with its bin index.
type submittedBin struct {
	bin int
	acc *binAcc
}

// detachBins removes every open bin <= limit from the open set and
// returns them in ascending bin order (nil when none). Pure map surgery:
// the caller owns the close counters.
func detachBins(bins map[int]*binAcc, limit int) []submittedBin {
	var out []submittedBin
	for bin, acc := range bins {
		if bin <= limit {
			out = append(out, submittedBin{bin, acc})
		}
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].bin < out[j].bin })
	for _, sb := range out {
		delete(bins, sb.bin)
	}
	return out
}

// submit feeds detached bins to the detector in ascending order, recording
// the first failure. Bins are only ever detached in ascending order across
// calls (by the one coordinator), so the detector's non-decreasing
// contract holds.
func (s *Server) submit(closed []submittedBin) {
	for _, sb := range closed {
		if err := s.det.Submit(sb.bin, sb.acc.bytes, sb.acc.packets, sb.acc.flows); err != nil {
			s.fail(fmt.Errorf("server: submit bin %d: %w", sb.bin, err))
			return
		}
	}
}

// fail records the first ingest-side error.
func (s *Server) fail(err error) {
	s.mu.Lock()
	if s.firstError == nil {
		s.firstError = err
	}
	s.mu.Unlock()
}

// Err returns the first error the daemon has seen: an ingest-side submit
// failure or a background detector failure.
func (s *Server) Err() error {
	s.mu.Lock()
	err := s.firstError
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.det.Err()
}

// Stats returns a snapshot of the ingest counters. Safe to call
// concurrently with ingest from any goroutine: the hot counters are
// atomics, so the snapshot is lock-free against the packet path (the
// counters may be mid-packet inconsistent with each other by a record or
// two, never torn).
func (s *Server) Stats() Stats {
	st := Stats{
		Packets:         s.ctr.packets.Load(),
		BadPackets:      s.ctr.badPackets.Load(),
		Duplicates:      s.ctr.duplicates.Load(),
		Records:         s.ctr.records.Load(),
		LostRecords:     s.ctr.lostRecords.Load(),
		LateRecords:     s.ctr.lateRecords.Load(),
		Unroutable:      s.ctr.unroutable.Load(),
		WildRecords:     s.ctr.wildRecords.Load(),
		WatermarkResets: s.ctr.watermarkResets.Load(),
		BinsClosed:      int(s.ctr.binsClosed.Load()),
		Watermark:       int(s.ctr.watermark.Load()),
		LastClosed:      int(s.ctr.lastClosed.Load()),
	}
	for f := flowwire.Format(1); f < flowwire.NumFormats; f++ {
		ps, seen := s.proto[f].state(f)
		if !seen {
			continue
		}
		if st.Protocols == nil {
			st.Protocols = make(map[string]ProtoStats, 4)
		}
		st.Protocols[f.String()] = ProtoStats{
			Packets:    ps.Packets,
			BadPackets: ps.BadPackets,
			Duplicates: ps.Duplicates,
			Records:    ps.Records,
			LostUnits:  ps.LostUnits,
			SeqUnit:    f.SequenceModel().Unit(),
		}
	}
	for _, w := range s.shards {
		st.BinsOpen += int(w.binsOpen.Load())
	}
	// The per-receiver and per-shard breakdowns describe the pipeline; an
	// inline daemon omits them, keeping its JSON surface unchanged.
	if !s.inline {
		st.Receivers = make([]ReceiverStats, len(s.recvs))
		for i, r := range s.recvs {
			st.Receivers[i] = ReceiverStats{
				Packets:    r.packets.Load(),
				BadPackets: r.badPackets.Load(),
				Bytes:      r.bytes.Load(),
			}
		}
		st.Shards = make([]ShardStats, len(s.shards))
		for i, w := range s.shards {
			st.Shards[i] = ShardStats{
				Records:       w.records.Load(),
				Duplicates:    w.duplicates.Load(),
				LateRecords:   w.lateRecords.Load(),
				WildRecords:   w.wildRecords.Load(),
				Unroutable:    w.unroutable.Load(),
				BinsOpen:      int(w.binsOpen.Load()),
				SealedThrough: int(w.sealed.Load()),
				QueueLen:      len(w.ch),
				QueueCap:      cap(w.ch),
			}
		}
		st.MergeQueueLen = len(s.mergeCh)
	}
	s.mu.Lock()
	st.AlarmBins = s.alarmBins
	st.Anomalies = len(s.anoms)
	st.Generations = s.gens
	st.CheckpointsWritten = s.cpWritten
	st.CheckpointErrors = s.cpErrors
	st.LastCheckpointBin = s.lastCpBin
	st.Restored = s.restored
	st.RestoredBin = s.restoredBin
	st.CheckpointFallbacks = s.cpFallbacks
	st.RestoreErr = s.restoreErr
	st.CheckpointErr = s.cpErr
	st.Draining = s.draining
	if s.firstError != nil {
		st.Err = s.firstError.Error()
	}
	s.mu.Unlock()
	// Freshness gauges appear only when a model lifecycle is active, so a
	// static-model daemon's JSON surface stays exactly as it was. The
	// detector's freshness reads are atomics — no lock needed.
	if kind, refitEvery := s.streamKind(); kind == engine.UpdaterIncremental || refitEvery > 0 {
		fr := s.det.Freshness()
		st.ModelFreshness = make([]FreshnessStat, len(fr))
		for i, f := range fr {
			st.ModelFreshness[i] = FreshnessStat{
				Measure:             dataset.Measure(i).String(),
				Updater:             string(f.Kind),
				Generation:          f.Gen,
				Updates:             f.Updates,
				BinsSinceCorrection: f.SinceCorrection,
				StalenessBins:       f.Staleness,
			}
		}
	}
	if st.Err == "" {
		if err := s.det.Err(); err != nil {
			st.Err = err.Error()
		}
	}
	if err := s.det.RefitErr(); err != nil {
		st.DegradedErr = err.Error()
	}
	return st
}

// Anomalies returns the characterized anomalies collected so far, oldest
// first.
func (s *Server) Anomalies() []netwide.Anomaly {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]netwide.Anomaly, len(s.anoms))
	copy(out, s.anoms)
	return out
}

// Drain performs the graceful shutdown: stop accepting datagrams, flush
// every in-flight bin through the detector (nothing accepted is dropped),
// write the final checkpoint (when enabled), wait for the verdict stream
// to complete — folding still-open events into the anomaly log — and
// finally stop the HTTP endpoint. The context bounds only the HTTP
// shutdown; the detector drain always runs to completion, so a context
// that is already done on entry is rejected up front rather than silently
// running a long drain whose deadline has passed. Drain may be called once:
// a second or concurrent call fails immediately with a descriptive error
// instead of blocking behind the first — the caller holding the real drain
// is the one that gets its result.
func (s *Server) Drain(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("server: drain: context already done before shutdown began: %w", err)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: drain already in progress or completed")
	}
	s.draining = true
	conns := s.conns
	stop := s.cpTimerStop
	s.cpTimerStop = nil
	s.mu.Unlock()

	if stop != nil {
		close(stop) // no timer snapshot may race the final one below
		s.timerWG.Wait()
	}
	for _, c := range conns {
		c.Close() // unblocks the reader goroutines
	}
	s.readersWG.Wait()

	// The receivers have exited: no new bins can appear. An in-flight
	// bin-cadence capture may still hold cpMu; stop the checkpointer, then
	// hold cpMu and the ingest gate for the whole teardown so neither a
	// capture nor a straggling IngestPacket caller interleaves with the
	// flush and the final snapshot. The snapshot carries every closed bin,
	// so a restart after a clean drain resumes zero bins stale.
	s.stopCheckpointer()
	s.cpMu.Lock()
	s.pauseMu.Lock()
	s.flush()
	if s.cfg.CheckpointPath != "" {
		s.capture()
	}
	s.stopEngine()
	s.pauseMu.Unlock()
	s.cpMu.Unlock()

	s.det.Close()
	s.consumerWG.Wait() // verdict stream fully drained, tail folded in
	s.det.Wait()        // settle background refits before reading errors
	if err := s.det.Err(); err != nil {
		// Fatal only: a refit failure means the daemon ran degraded, not
		// that the drain failed — it stays on Stats.DegradedErr.
		s.fail(fmt.Errorf("server: detector: %w", err))
	}

	s.mu.Lock()
	srv, ln := s.httpSrv, s.httpLn
	s.httpSrv, s.httpLn = nil, nil
	s.mu.Unlock()
	if srv != nil {
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	} else if ln != nil {
		ln.Close()
	}
	return s.Err()
}

// Kill stops the daemon the way a crash would: sockets closed, goroutines
// reaped, but no flush, no final checkpoint — the open bins and the
// in-memory ledger are simply gone, and the snapshot on disk stays
// whatever the last periodic write made it. This is the chaos tests' kill
// switch; production shutdown is Drain.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	conns := s.conns
	stop := s.cpTimerStop
	s.cpTimerStop = nil
	srv, ln := s.httpSrv, s.httpLn
	s.httpSrv, s.httpLn = nil, nil
	s.mu.Unlock()

	if stop != nil {
		close(stop)
		s.timerWG.Wait()
	}
	for _, c := range conns {
		c.Close()
	}
	s.readersWG.Wait()
	if srv != nil {
		srv.Close() // abrupt: no graceful connection drain
	} else if ln != nil {
		ln.Close()
	}
	// Let an in-flight capture finish against a live engine, then tear it
	// down with no flush — whatever the shards still held is lost, exactly
	// like a crash.
	s.stopCheckpointer()
	s.cpMu.Lock()
	s.stopEngine()
	s.cpMu.Unlock()
	// Reap the detector goroutines so a killed daemon leaks nothing into
	// the test process; the verdicts it delivers on the way down land in a
	// ledger nobody will read again.
	s.det.Close()
	s.consumerWG.Wait()
	s.det.Wait()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := s.Err(); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request) {
	anoms := s.Anomalies()
	if anoms == nil {
		anoms = []netwide.Anomaly{} // render [] rather than null
	}
	writeJSON(w, anoms)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
