package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"netwide"
	"netwide/internal/flowwire"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

var (
	runOnce   sync.Once
	sharedRun *netwide.Run
	runErr    error
)

// testRun builds the shared 1-week quick run every server test trains on.
func testRun(t testing.TB) *netwide.Run {
	t.Helper()
	runOnce.Do(func() {
		sharedRun, runErr = netwide.Simulate(netwide.QuickConfig())
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	return sharedRun
}

// parityStream is the batch-parity detector setup: models trained on the
// full run, no refits (thresholds must not drift for bit-exact parity).
func parityStream(run *netwide.Run) netwide.StreamConfig {
	return netwide.StreamConfig{TrainBins: run.Bins(), BatchSize: 16}
}

func anomalyKey(a netwide.Anomaly) string {
	return fmt.Sprintf("%s|%s|%d-%d|%v|%s|%s", a.Class, a.Measures, a.StartBin, a.EndBin, a.ODs, a.Truth, a.TruthType)
}

// TestLoopbackEndToEnd is the tentpole proof, once per wire format over
// the sharded pipeline plus an inline-engine control leg: a dataset
// replayed as live export traffic over UDP loopback — NetFlow v5, NetFlow
// v9, IPFIX and sFlow v5 side by side, through 2 SO_REUSEPORT receivers
// and 4 binning shards — ingested by the daemon, must drive the streaming
// detector to exactly the anomalies the batch Detect + Characterize path
// finds on the same data, in every format: the wire hop, the
// normalization, the sharded bin aggregation, the merge barrier and the
// drain must all be lossless.
//
// Under -short (the CI race step) only the first two days are replayed and
// the assertions stop at ingest integrity — batch event windows span the
// whole week, so exact anomaly parity is only meaningful on a full replay.
func TestLoopbackEndToEnd(t *testing.T) {
	run := testRun(t)
	bins := run.Bins()
	fullParity := true
	if testing.Short() {
		bins = 2 * traffic.BinsPerDay
		fullParity = false
	}

	// The batch reference is computed once, up front; every leg's daemon is
	// compared against the same anomaly set.
	var batchKeys []string
	if fullParity {
		if err := run.Detect(netwide.DefaultDetectOptions()); err != nil {
			t.Fatal(err)
		}
		batch := run.Characterize()
		if len(batch) == 0 {
			t.Fatal("batch path characterized nothing; parity check is vacuous")
		}
		batchKeys = make([]string, len(batch))
		for i, a := range batch {
			batchKeys[i] = anomalyKey(a)
		}
		sort.Strings(batchKeys)
	}

	// The four-format matrix runs the sharded pipeline; the plain leg pins
	// the inline 1×1 engine against the same reference.
	sharded := Config{
		HTTPAddr:  "127.0.0.1:0",
		Receivers: 2,
		Shards:    4,
		// Receivers drain their sockets independently and the replay sprays
		// them from independent connections, so one receiver can run many
		// bins ahead of the other whenever the scheduler stalls a sender.
		// The replay compresses a week into ~17s (~116 bins/s of bin-time
		// per wall-second), so even a sub-second one-sided stall is dozens
		// of bins of skew: the reorder window and the wild-timestamp bound
		// both need far more headroom here than a real deployment (where a
		// bin is five wall-clock minutes) would ever configure.
		Grace:    96,
		MaxAhead: 576,
		Detect:   netwide.DefaultDetectOptions(),
	}
	for _, format := range flowwire.AllFormats() {
		format := format
		t.Run(format.String(), func(t *testing.T) {
			t.Parallel()
			loopbackLeg(t, run, bins, batchKeys, fullParity, format, sharded, 2)
		})
	}
	t.Run("netflow5-plain", func(t *testing.T) {
		t.Parallel()
		plain := Config{HTTPAddr: "127.0.0.1:0", Detect: netwide.DefaultDetectOptions()}
		loopbackLeg(t, run, bins, batchKeys, fullParity, flowwire.FormatNetFlowV5, plain, 1)
	})
}

// loopbackLeg replays bins [0, bins) over loopback into a daemon built
// from cfg and asserts the full lossless-parity contract.
func loopbackLeg(t *testing.T, run *netwide.Run, bins int, batchKeys []string, fullParity bool, format flowwire.Format, cfg Config, conns int) {
	t.Helper()
	cfg.Stream = parityStream(run)
	srv, err := New(run, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	sent, err := Replay(run.Dataset(), ReplayConfig{
		Addr:             srv.UDPAddr().String(),
		Format:           format,
		From:             0,
		To:               bins,
		PacketsPerSecond: 10000,
		Conns:            conns,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sent.Records == 0 || sent.Packets == 0 {
		t.Fatalf("replay sent nothing: %+v", sent)
	}

	// UDP offers no delivery handshake: poll until every sent record
	// has been counted (or the deadline proves loss).
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := srv.Stats()
		if st.Records == uint64(sent.Records) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d of %d sent records after 60s (lost=%d bad=%d late=%d): UDP loss breaks parity — lower the replay rate",
				st.Records, sent.Records, st.LostRecords, st.BadPackets, st.LateRecords)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Exercise the HTTP surface while the daemon is still live.
	base := "http://" + srv.HTTPAddr().String()
	resp, err := http.Get(base + "/api/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var httpStats Stats
	if err := json.NewDecoder(resp.Body).Decode(&httpStats); err != nil {
		t.Fatalf("stats endpoint: %v", err)
	}
	resp.Body.Close()
	if httpStats.Records != uint64(sent.Records) {
		t.Fatalf("stats endpoint reports %d records, want %d", httpStats.Records, sent.Records)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st := srv.Stats()
	if st.LostRecords != 0 || st.BadPackets != 0 || st.Duplicates != 0 || st.LateRecords != 0 || st.Unroutable != 0 {
		t.Fatalf("lossless loopback replay took losses: %+v", st)
	}
	if st.BinsClosed != bins || st.BinsOpen != 0 {
		t.Fatalf("closed %d bins (open %d), want %d closed after drain", st.BinsClosed, st.BinsOpen, bins)
	}
	// The per-protocol breakdown must attribute every packet and
	// record to this format, with no loss in its own sequence unit.
	ps, ok := st.Protocols[format.String()]
	if !ok {
		t.Fatalf("stats carry no %q protocol entry: %+v", format, st.Protocols)
	}
	if ps.Records != uint64(sent.Records) || ps.Packets != uint64(sent.Packets) || ps.LostUnits != 0 {
		t.Fatalf("protocol breakdown %+v, want %d packets / %d records lossless", ps, sent.Packets, sent.Records)
	}
	if want := format.SequenceModel().Unit(); ps.SeqUnit != want {
		t.Errorf("protocol seq unit %q, want %q", ps.SeqUnit, want)
	}
	// On the sharded pipeline the per-receiver and per-shard breakdowns
	// must jointly account for every packet and record; the inline engine
	// must not grow the new fields at all (the stats JSON is a
	// compatibility surface).
	if cfg.Receivers > 1 || cfg.Shards > 1 {
		if len(st.Receivers) != cfg.Receivers || len(st.Shards) != cfg.Shards {
			t.Fatalf("stats carry %d receivers / %d shards, want %d / %d", len(st.Receivers), len(st.Shards), cfg.Receivers, cfg.Shards)
		}
		var rp, sr uint64
		for _, r := range st.Receivers {
			rp += r.Packets
		}
		for _, sh := range st.Shards {
			sr += sh.Records
		}
		if rp != st.Packets || sr != st.Records {
			t.Fatalf("per-receiver packets %d (want %d) / per-shard records %d (want %d)", rp, st.Packets, sr, st.Records)
		}
	} else if st.Receivers != nil || st.Shards != nil {
		t.Fatalf("inline daemon leaked sharded stats: %+v", st)
	}

	if !fullParity {
		if srv.Err() != nil {
			t.Fatalf("short replay left the daemon unhealthy: %v", srv.Err())
		}
		return
	}

	// Full week replayed: the daemon's characterized anomalies must
	// match the batch path exactly, whatever the wire format and the
	// pipeline shape were.
	streamed := srv.Anomalies()
	sk := make([]string, len(streamed))
	for i, a := range streamed {
		sk[i] = anomalyKey(a)
	}
	sort.Strings(sk)
	if len(batchKeys) != len(sk) {
		t.Fatalf("daemon characterized %d anomalies, batch %d:\n daemon %v\n batch  %v", len(sk), len(batchKeys), sk, batchKeys)
	}
	for i := range batchKeys {
		if batchKeys[i] != sk[i] {
			t.Errorf("anomaly %d differs:\n batch  %s\n daemon %s", i, batchKeys[i], sk[i])
		}
	}
}

// TestAPIVersionAliases pins the HTTP compatibility contract: every
// endpoint serves identical bytes under its versioned /api/v1/ path and
// its legacy unversioned alias.
func TestAPIVersionAliases(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{HTTPAddr: "127.0.0.1:0", Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.HTTPAddr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.String()
	}
	for _, ep := range []string{"healthz", "stats", "anomalies"} {
		legacyCode, legacyBody := get("/" + ep)
		v1Code, v1Body := get("/api/v1/" + ep)
		if legacyCode != http.StatusOK || v1Code != http.StatusOK {
			t.Fatalf("%s: status %d (legacy) / %d (v1), want 200/200", ep, legacyCode, v1Code)
		}
		if legacyBody != v1Body {
			t.Errorf("%s: legacy and /api/v1 bodies differ:\n legacy %q\n v1     %q", ep, legacyBody, v1Body)
		}
	}
	if _, body := get("/api/v1/anomalies"); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty anomaly log renders %q, want []", body)
	}
}

// collectRecords regenerates resolved records from origin PoP 0 cells of
// one bin until it has n of them — real, resolvable payloads for crafted
// packets.
func collectRecords(t *testing.T, run *netwide.Run, n int) []flowwire.Flow {
	t.Helper()
	ds := run.Dataset()
	var recs []flowwire.Flow
	for i := 0; i < ds.Top.NumODPairs() && len(recs) < n; i++ {
		od := ds.Top.ODAt(i)
		if od.Origin != 0 {
			continue
		}
		ds.ForEachResolvedRecord(od, 0, func(_ topology.ODPair, r flowwire.Flow) {
			if len(recs) < n {
				recs = append(recs, r)
			}
		})
	}
	if len(recs) < n {
		t.Fatalf("collected only %d of %d records", len(recs), n)
	}
	return recs
}

// pkt encodes one v5 packet from engine 0 with the given sequence and bin
// timestamp.
func pkt(t *testing.T, seq uint32, bin int, recs []flowwire.Flow) []byte {
	t.Helper()
	b, err := flowwire.EncodeV5Packet(flowwire.V5Header{
		UnixSecs:     uint32(bin) * traffic.BinSeconds,
		FlowSequence: seq,
		EngineID:     0,
	}, recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// transports are the two schedules of the one ingest engine, which must
// apply the same binning rules: the inline 1×1 daemon and a pipelined one.
// Tests feed them through ingestSettled, which quiesces after every
// datagram — the pipelined coordinator then acts on each datagram before
// the next arrives, exactly as the inline engine does by construction, so
// both legs must report the same counters.
var transports = []struct {
	name string
	cfg  Config
}{
	{"inline", Config{}},
	{"pipelined", Config{Receivers: 1, Shards: 2}},
}

// ingestSettled ingests each datagram and settles the engine after it.
func ingestSettled(srv *Server, pkts ...[]byte) {
	for _, p := range pkts {
		srv.IngestPacket(p)
		srv.quiesce()
	}
}

// TestOutOfOrderAndDuplicates pins the transport-hardening semantics on
// both transports: duplicate packets are dropped by sequence replay
// detection, bins arriving out of time order within the grace window
// still land in their own bin, late packets for sealed bins are counted
// and discarded — including a straggler for a bin that was sealed while
// empty — and sequence gaps are accounted as loss.
func TestOutOfOrderAndDuplicates(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 10)
	p1 := pkt(t, 0, 5, recs)
	type want struct {
		dups, records, late, lost                  uint64
		closed, lastClosed, watermark, open, final int
	}
	inputs := []struct {
		name  string
		grace int
		pkts  [][]byte
		want  want
	}{
		{
			name:  "reorder",
			grace: 3,
			pkts: [][]byte{
				p1,                                     // bin 5, seq 0..9
				p1,                                     // exact duplicate: must not double-count
				pkt(t, 10, 4, recs),                    // bin 4, AFTER bin 5 — within grace
				pkt(t, 20, 8, recs),                    // bin 8: watermark advances, closes bins <= 5
				pkt(t, 30, 3, recs),                    // bin 3: now late (sealed)
				pkt(t, 90, 8, recs),                    // seq gap: 50 records presumed lost
				pkt(t, 40, 8, recs),                    // the reordered packet behind the gap: refund 10
				pkt(t, 3_000_000_000, 8, recs),         // wild backward sequence: exporter restart, resync
				pkt(t, 3_000_000_010+(1<<30), 8, recs), // wild FORWARD jump: restart too, not a phantom 2^30-record gap
			},
			// records: p1 + bin 4 + the five bin-8 packets; lost: the
			// 50-record gap minus the reordered refund, restarts charge
			// nothing; open: bin 8.
			want: want{dups: 1, records: 70, late: 10, lost: 40, closed: 2, lastClosed: 5, watermark: 8, open: 1, final: 3},
		},
		{
			// Bins 2-4 see no traffic, but bin 5's arrival seals through 4
			// all the same: a record for bin 3 is late even though bin 3
			// never opened.
			name:  "empty-bin straggler",
			grace: 1,
			pkts: [][]byte{
				pkt(t, 0, 0, recs),
				pkt(t, 10, 1, recs),
				pkt(t, 20, 5, recs),
				pkt(t, 30, 3, recs),
				pkt(t, 40, 6, recs),
			},
			want: want{records: 40, late: 10, closed: 3, lastClosed: 5, watermark: 6, open: 1, final: 4},
		},
	}
	for _, in := range inputs {
		for _, tr := range transports {
			t.Run(in.name+"/"+tr.name, func(t *testing.T) {
				cfg := tr.cfg
				cfg.Grace = in.grace
				cfg.Stream = parityStream(run)
				srv, err := New(run, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ingestSettled(srv, in.pkts...)
				w := in.want
				st := srv.Stats()
				if st.Duplicates != w.dups {
					t.Errorf("duplicates %d, want %d", st.Duplicates, w.dups)
				}
				if st.Records != w.records {
					t.Errorf("records %d, want %d", st.Records, w.records)
				}
				if st.LateRecords != w.late {
					t.Errorf("late records %d, want %d", st.LateRecords, w.late)
				}
				if st.LostRecords != w.lost {
					t.Errorf("lost records %d, want %d", st.LostRecords, w.lost)
				}
				if st.BinsClosed != w.closed || st.LastClosed != w.lastClosed || st.Watermark != w.watermark {
					t.Errorf("bin state %+v, want %d closed through %d, watermark %d", st, w.closed, w.lastClosed, w.watermark)
				}
				if st.BinsOpen != w.open {
					t.Errorf("open bins %d, want %d", st.BinsOpen, w.open)
				}

				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := srv.Drain(ctx); err != nil {
					t.Fatalf("drain: %v", err)
				}
				if st := srv.Stats(); st.BinsClosed != w.final || st.BinsOpen != 0 {
					t.Errorf("after drain: %d closed / %d open, want %d / 0", st.BinsClosed, st.BinsOpen, w.final)
				}
			})
		}
	}
}

// TestDrainFlushesInFlightBins pins the graceful-shutdown contract: bins
// still inside the grace window when the daemon stops must be submitted,
// scored and characterized before Drain returns — an operator stopping the
// daemon loses nothing that reached it.
func TestDrainFlushesInFlightBins(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Grace: 4, Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	recs := collectRecords(t, run, 10)
	for bin := 0; bin < 3; bin++ { // all three bins stay inside grace 4
		srv.IngestPacket(pkt(t, uint32(bin*10), bin, recs))
	}
	if st := srv.Stats(); st.BinsClosed != 0 || st.BinsOpen != 3 {
		t.Fatalf("pre-drain bin state %+v, want 0 closed / 3 open", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := srv.Stats()
	if st.BinsClosed != 3 || st.BinsOpen != 0 || st.LastClosed != 2 {
		t.Fatalf("after drain %+v, want all 3 bins closed", st)
	}
	if !st.Draining {
		t.Error("stats do not report the drain")
	}
	// A second drain is a caller bug: it fails fast with a descriptive
	// error instead of silently waiting behind a shutdown that already
	// happened (the old behavior hid double-shutdown bugs in operators).
	if err := srv.Drain(ctx); err == nil || !strings.Contains(err.Error(), "already") {
		t.Fatalf("second drain: %v, want an 'already in progress or completed' error", err)
	}
}

// TestDrainRejectsDeadContext pins the other half of the drain contract:
// the context bounds only the HTTP shutdown, so a context that is already
// done on entry would silently run an unbounded drain — it is rejected up
// front instead.
func TestDrainRejectsDeadContext(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Drain(dead); err == nil || !strings.Contains(err.Error(), "context") {
		t.Fatalf("drain with dead context: %v, want a context error", err)
	}
	// The rejected call must not have flipped the daemon into draining: a
	// live context afterwards still performs the real shutdown.
	ctx, cancelLive := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelLive()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after rejected call: %v", err)
	}
	if !srv.Stats().Draining {
		t.Error("stats do not report the drain")
	}
}

// TestConcurrentDrain: exactly one of N concurrent Drain calls wins; the
// rest fail promptly with the descriptive error rather than piling up
// behind the winner.
func TestConcurrentDrain(t *testing.T) {
	run := testRun(t)
	srv, err := New(run, Config{Stream: parityStream(run)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- srv.Drain(ctx)
		}()
	}
	wg.Wait()
	close(errs)
	var ok, rejected int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case strings.Contains(err.Error(), "already"):
			rejected++
		default:
			t.Errorf("unexpected drain error: %v", err)
		}
	}
	if ok != 1 || rejected != 3 {
		t.Fatalf("%d drains succeeded and %d were rejected, want 1 and 3", ok, rejected)
	}
}

// TestHostileDatagrams feeds the daemon the decoder's whole rogues'
// gallery on both transports: every datagram must be counted and dropped
// without disturbing ingest state, and records that decode but cannot be
// routed (unknown engine, unresolvable destination) must be counted
// unroutable — untrusted bytes never panic the daemon and never leak into
// the matrices.
func TestHostileDatagrams(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 5)
	good := pkt(t, 0, 0, recs)
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			cfg := tr.cfg
			cfg.Stream = parityStream(run)
			srv, err := New(run, cfg)
			if err != nil {
				t.Fatal(err)
			}

			ingestSettled(srv, nil)                           // empty datagram
			ingestSettled(srv, []byte{1, 2, 3})               // runt
			ingestSettled(srv, good[:flowwire.V5HeaderLen+7]) // truncated mid-record
			badVersion := append([]byte(nil), good...)
			badVersion[1] = 9
			ingestSettled(srv, badVersion)
			hostileCount := append([]byte(nil), good...)
			hostileCount[2], hostileCount[3] = 0xFF, 0xFF
			ingestSettled(srv, hostileCount)
			ingestSettled(srv, bytes.Repeat([]byte{0xAB}, 2048)) // garbage

			st := srv.Stats()
			if st.BadPackets != 6 {
				t.Errorf("bad packets %d, want 6", st.BadPackets)
			}
			if st.Records != 0 || st.BinsOpen != 0 {
				t.Errorf("hostile datagrams leaked into ingest state: %+v", st)
			}

			// A decodable packet from an engine the topology does not know.
			unknownEngine, err := flowwire.EncodeV5Packet(flowwire.V5Header{EngineID: 200, FlowSequence: 0}, recs)
			if err != nil {
				t.Fatal(err)
			}
			ingestSettled(srv, unknownEngine)
			if st := srv.Stats(); st.Unroutable != uint64(len(recs)) {
				t.Errorf("unroutable %d, want %d", st.Unroutable, len(recs))
			}

			// The daemon is still healthy and still ingests good traffic.
			if srv.Err() != nil {
				t.Fatalf("hostile datagrams broke the daemon: %v", srv.Err())
			}
			ingestSettled(srv, good)
			if st := srv.Stats(); st.Records != uint64(len(recs)) {
				t.Errorf("good packet after hostile burst: %d records, want %d", st.Records, len(recs))
			}

			// A spoofed far-future timestamp must neither move the watermark
			// (it would force-close partial bins and stall every legitimate
			// bin) nor open a bin; its records are refused as wild.
			wild, err := flowwire.EncodeV5Packet(flowwire.V5Header{
				UnixSecs:     uint32(1000 * traffic.BinSeconds),
				FlowSequence: uint32(len(recs)),
			}, recs)
			if err != nil {
				t.Fatal(err)
			}
			ingestSettled(srv, wild)
			st = srv.Stats()
			if st.WildRecords != uint64(len(recs)) {
				t.Errorf("wild records %d, want %d", st.WildRecords, len(recs))
			}
			if st.Watermark != 0 || st.BinsOpen != 1 {
				t.Errorf("spoofed timestamp moved bin state: watermark %d, open %d", st.Watermark, st.BinsOpen)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWatermarkRecovery pins the stranded-watermark self-heal on both
// transports: a far-future FIRST packet (nothing exists to bound it
// against) parks the watermark where no legitimate bin could ever close,
// and seals every bin below it — until a quorum of consecutive routable
// packets running far below it, yet above LastClosed, re-anchors the
// watermark, discards the stranded bin as wild, reopens the empty sealed
// bins, and bin close resumes.
func TestWatermarkRecovery(t *testing.T) {
	run := testRun(t)
	recs := collectRecords(t, run, 10)
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			cfg := tr.cfg
			cfg.Stream = parityStream(run)
			srv, err := New(run, cfg)
			if err != nil {
				t.Fatal(err)
			}

			ingestSettled(srv, pkt(t, 0, 1000, recs)) // hostile first packet: bin 1000
			if st := srv.Stats(); st.Watermark != 1000 {
				t.Fatalf("first packet set watermark %d, want 1000", st.Watermark)
			}
			// Legitimate traffic: bins 0,1,2,... — all far below the stranded
			// watermark. After the quorum the watermark must snap back.
			seq := uint32(10)
			for bin := 0; bin < 12; bin++ {
				ingestSettled(srv, pkt(t, seq, bin, recs))
				seq += uint32(len(recs))
			}
			st := srv.Stats()
			if st.WatermarkResets != 1 {
				t.Fatalf("watermark resets %d, want 1 (stats: %+v)", st.WatermarkResets, st)
			}
			if st.Watermark >= 1000 {
				t.Fatalf("watermark still stranded at %d", st.Watermark)
			}
			if st.WildRecords != uint64(len(recs)) {
				t.Errorf("stranded bin's %d records not discarded as wild (got %d)", len(recs), st.WildRecords)
			}
			if st.BinsClosed == 0 {
				t.Error("bin close never resumed after watermark recovery")
			}
			// The quorum's eight packets (bins 0-7) arrived while bins below
			// 1000 were sealed, so they are late; the reset re-anchors at bin
			// 7, and bins 8-11 flow: 8, 9 and 10 close behind the grace window.
			if st.LateRecords != 8*uint64(len(recs)) || st.BinsClosed != 3 || st.LastClosed != 10 || st.Watermark != 11 {
				t.Errorf("post-recovery state: late %d, closed %d through %d, watermark %d; want %d, 3 through 10, 11",
					st.LateRecords, st.BinsClosed, st.LastClosed, st.Watermark, 8*len(recs))
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
}
