// Command perfbench is the end-to-end benchmark of the nwserve daemon. It
// builds the daemon in-process with server.New, drives it from its own
// generator with a simulated network's pre-encoded flow-export datagrams,
// checks what comes out against a reference replay, and prints one JSON
// result line. See README.md for the workloads and metrics.
//
//	go build -o perfbench . && ./perfbench --workload replay-sync --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// endToEnd names the untraced metrics and their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"ingest_rps", "rec/s"},
	{"emit_latency_p50_ms", "ms"},
	{"emit_latency_p90_ms", "ms"},
	{"delivered_frac", "ratio"},
	{"anomaly_match_frac", "ratio"},
	{"cpu_s_per_mrec", "s/Mrec"},
	{"alloc_mb_per_mrec", "MB/Mrec"},
	{"daemon_heap_mb", "MB"},
	{"setup_s", "s"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bins     int    // smoke mode: replay only this many bins
	out      string // directory for snapshots and trace files
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: replay-sync, live-sharded or restart-incremental")
	flag.Uint64Var(&o.seed, "seed", 2004, "simulation seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to measure (untraced runs repeat the workload until it has run this long)")
	flag.IntVar(&trace, "trace", 0, "1 runs the workload once untraced and once traced and reports the per-layer metrics")
	flag.IntVar(&o.bins, "bins", 0, "smoke mode: simulate one week and replay only its last N bins (0 = train on week 1, replay week 2)")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for checkpoints and span dumps")
	flag.Parse()
	o.trace = trace == 1

	// The whole run must end inside the caller's 180 s budget.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170 s")
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Println(hostLine())
	res, problems, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(2)
	}
}

// run generates the inputs and measures the workload, untraced or traced.
func run(o options) (*result, []string, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, nil, err
	}
	in, err := genInputs(w, o.seed, o.bins)
	if err != nil {
		return nil, nil, err
	}
	return measure(in, o)
}

// measure runs the workload on generated inputs: repeatedly for
// o.seconds untraced, or once untraced and once traced.
func measure(in *inputs, o options) (*result, []string, error) {
	w := in.w
	scratch := filepath.Join(o.out, "run")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: bins [%d,%d), %d datagrams, %d records, %d reference anomalies (simulate %.1fs, encode %.1fs)\n",
		w.name, in.run.Dataset().Cfg.Seed, in.from, in.to, len(in.stream.dgrams), in.stream.records(in.from, in.to), len(in.ref), in.simulateS, in.encodeS)
	if o.trace {
		return runTraced(in, o, scratch)
	}
	var its []*iteration
	var problems []string
	start := time.Now()
	for len(its) == 0 || time.Since(start).Seconds() < o.seconds {
		it, err := runIteration(in, scratch, nil, -1)
		if err != nil {
			return nil, nil, err
		}
		problems = append(problems, check(in, it)...)
		its = append(its, it)
	}
	res := summarize(its, problems)
	report(w.name, its, res.Metrics)
	return res, problems, nil
}

// summarize reduces the iterations to the end-to-end metrics: medians of
// per-iteration figures (latency percentiles are taken per iteration, so
// one stalled iteration cannot set the run's tail), with the delivery and
// match shares pooled over every iteration.
func summarize(its []*iteration, problems []string) *result {
	var rps, cpu, alloc, heap, setup, p50, p90 []float64
	var folded, records, dropped, mismatch, compared int
	for _, it := range its {
		mrec := float64(it.records) / 1e6
		rps = append(rps, float64(it.records)/it.timedS)
		cpu = append(cpu, it.cpuS/mrec)
		alloc = append(alloc, it.allocMB/mrec)
		heap = append(heap, it.heapMB)
		setup = append(setup, it.setupS)
		if len(it.lat) > 0 {
			p50 = append(p50, quantile(it.lat, 0.5))
			p90 = append(p90, quantile(it.lat, 0.9))
		}
		folded += int(it.folded())
		records += it.records
		for _, l := range it.lives {
			dropped += int(l.delta().dropped())
		}
		mismatch += it.match.mismatch()
		compared += it.match.daemon + it.match.ref
	}
	m := metrics{}
	m.set("ingest_rps", median(rps), "rec/s")
	m.set("emit_latency_p50_ms", median(p50), "ms")
	m.set("emit_latency_p90_ms", median(p90), "ms")
	m.set("delivered_frac", float64(folded)/float64(records), "ratio")
	m.set("anomaly_match_frac", 1-float64(mismatch)/float64(max(compared, 1)), "ratio")
	m.set("cpu_s_per_mrec", median(cpu), "s/Mrec")
	m.set("alloc_mb_per_mrec", median(alloc), "MB/Mrec")
	m.set("daemon_heap_mb", median(heap), "MB")
	m.set("setup_s", median(setup), "s")
	correct := len(problems) == 0
	for _, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			correct = false
		}
	}
	return &result{Correct: correct, Attempted: records, Failed: dropped, Metrics: m}
}

// report prints each iteration and the summary to stderr.
func report(name string, its []*iteration, m metrics) {
	for i, it := range its {
		var d delta
		for _, l := range it.lives {
			ld := l.delta()
			d.late, d.wild, d.lost, d.unroutable = d.late+ld.late, d.wild+ld.wild, d.lost+ld.lost, d.unroutable+ld.unroutable
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: setup %.3fs, timed %.3fs, %d latency samples (p50 %.2f, p90 %.2f, p99 %.2f ms), anomalies daemon %d / reference %d, dropped late %d wild %d lost %d unroutable %d\n",
			name, i, it.setupS, it.timedS, len(it.lat), quantile(it.lat, 0.5), quantile(it.lat, 0.9), quantile(it.lat, 0.99), it.match.daemon, it.match.ref, d.late, d.wild, d.lost, d.unroutable)
	}
	for _, e := range endToEnd {
		fmt.Fprintf(os.Stderr, "perfbench: %-22s %14.6g %s\n", e.name, m[e.name].Value, m[e.name].Unit)
	}
}

// runTraced runs the workload once untraced and once traced, then replays
// its inputs through the layers the daemon hides. It reports the
// per-layer metrics, the traced-minus-untraced difference of every
// end-to-end metric, and how much of the feed wall time the ingest spans
// cover; the spans go to a gzipped CSV under the output directory.
func runTraced(in *inputs, o options, scratch string) (*result, []string, error) {
	u, err := runIteration(in, scratch, nil, -1)
	if err != nil {
		return nil, nil, err
	}
	problems := check(in, u)
	runID := fmt.Sprintf("%s-seed%d-%d", in.w.name, o.seed, time.Now().UnixNano())
	tr := newTracer(runID)
	root := tr.open("run", -1)
	t, err := runIteration(in, scratch, tr, root)
	if err != nil {
		return nil, nil, err
	}
	problems = append(problems, check(in, t)...)
	untraced := summarize([]*iteration{u}, nil)
	traced := summarize([]*iteration{t}, problems)

	m := metrics{}
	for _, e := range endToEnd {
		m.set("overhead."+e.name, traced.Metrics[e.name].Value-untraced.Metrics[e.name].Value, e.unit)
	}
	if err := daemonLayers(in, t, tr, root, m); err != nil {
		return nil, nil, err
	}
	if err := replayDecode(in, tr, root, m); err != nil {
		return nil, nil, err
	}
	if err := replayDetect(in, tr, root, m); err != nil {
		problems = append(problems, err.Error())
	}
	if err := replayStream(in, tr, root, m); err != nil {
		return nil, nil, err
	}
	m.set("dataset.simulate_s", in.simulateS, "s")
	m.set("dataset.encode_s", in.encodeS, "s")
	tr.close(root)
	path := filepath.Join(o.out, "traces", runID+".csv.gz")
	if err := tr.write(path); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(os.Stderr, "perfbench: %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	res := &result{Correct: len(problems) == 0, Attempted: traced.Attempted, Failed: traced.Failed, Metrics: m}
	return res, problems, nil
}

// daemonLayers reports the spans and counters of the traced daemon run.
// The open-loop daemon ingests on its own receiver goroutines, out of the
// benchmark's reach, so its per-call ingest spans come from feeding the
// same datagrams closed loop through IngestPacket of a second daemon built
// with the same configuration.
func daemonLayers(in *inputs, t *iteration, tr *tracer, root int32, m metrics) error {
	feedSpans := "feed"
	if in.w.pps > 0 {
		srv, err := startDaemon(in.run, in.w.daemonConfig(""))
		if err != nil {
			return err
		}
		ph := tr.open("layer.server", root)
		l := newLife(srv, in)
		l.feedClosed(in.stream, in.from, in.to, tr, ph)
		tr.close(ph)
		err = srv.Drain(context.Background())
		l.end()
		if err != nil {
			return fmt.Errorf("server layer replay: %w", err)
		}
		feedSpans = "layer.server"
	}
	ingest := tr.durations("server.ingest", time.Microsecond)
	closes := tr.durations("server.bin_close", time.Millisecond)
	cps := tr.durations("server.checkpoint_close", time.Millisecond)
	m.set("server.ingest_us_p50", quantile(ingest, 0.5), "us")
	m.set("server.ingest_us_p99", quantile(ingest, 0.99), "us")
	m.set("server.bin_close_ms_p50", quantile(closes, 0.5), "ms")
	m.set("server.bin_close_ms_p99", quantile(closes, 0.99), "ms")
	m.set("server.checkpoint_close_ms_p50", orZero(quantile(cps, 0.5)), "ms")
	m.set("server.checkpoint_close_ms_p99", orZero(quantile(cps, 0.99)), "ms")
	m.set("server.drain_ms", tr.total("server.drain", time.Millisecond), "ms")
	// The ingest spans tile the closed-loop feed; what they leave uncovered
	// is the feeding loop itself plus span bookkeeping.
	spans := tr.total("server.ingest", time.Second) + tr.total("server.bin_close", time.Second) + tr.total("server.checkpoint_close", time.Second)
	m.set("trace.ingest_span_cover", spans/tr.total(feedSpans, time.Second), "ratio")

	sum := func(f func(l *life) uint64) float64 {
		n := uint64(0)
		for _, l := range t.lives {
			n += f(l)
		}
		return float64(n)
	}
	m.set("server.late_records", sum(func(l *life) uint64 { return l.delta().late }), "count")
	m.set("server.wild_records", sum(func(l *life) uint64 { return l.delta().wild }), "count")
	m.set("server.lost_records", sum(func(l *life) uint64 { return l.delta().lost }), "count")
	m.set("server.unroutable_records", sum(func(l *life) uint64 { return l.delta().unroutable }), "count")
	m.set("server.duplicate_dgrams", sum(func(l *life) uint64 { return l.delta().dups }), "count")
	m.set("server.bad_dgrams", sum(func(l *life) uint64 { return l.delta().bad }), "count")
	shardQ, mergeQ := 0, 0
	for _, l := range t.lives {
		shardQ, mergeQ = max(shardQ, l.poll.shardQMax), max(mergeQ, l.poll.mergeMax)
	}
	m.set("server.shard_queue_max", float64(shardQ), "count")
	m.set("server.merge_queue_max", float64(mergeQ), "count")
	m.set("server.receiver_imbalance", receiverImbalance(t.final()), "ratio")

	snapshots := sum(func(l *life) uint64 { return l.after.CheckpointsWritten })
	m.set("checkpoint.snapshots", snapshots, "count")
	m.set("checkpoint.bytes", float64(t.ckptBytes), "B")
	m.set("checkpoint.restore_ms", t.restoreMS, "ms")
	m.set("checkpoint.read_ms", t.ckptReadMS, "ms")

	var anoms, stats []float64
	if t.http != nil {
		anoms, stats = t.http.anoms, t.http.stats
	}
	m.set("http.anomalies_ms_p50", orZero(quantile(anoms, 0.5)), "ms")
	m.set("http.stats_ms_p50", orZero(quantile(stats, 0.5)), "ms")
	m.set("gen.late_max_ms", float64(t.lateMax)/float64(time.Millisecond), "ms")
	m.set("gen.datagrams", sum(func(l *life) uint64 { return uint64(l.datagrams) }), "count")
	m.set("gen.records", sum(func(l *life) uint64 { return uint64(l.fed) }), "count")
	return nil
}

// receiverImbalance is the busiest receiver's datagram count over the
// mean (1 with a single receiver).
func receiverImbalance(l *life) float64 {
	rs := l.after.Receivers
	if len(rs) < 2 {
		return 1
	}
	var sum, top uint64
	for _, r := range rs {
		sum += r.Packets
		top = max(top, r.Packets)
	}
	if sum == 0 {
		return 1
	}
	return float64(top) * float64(len(rs)) / float64(sum)
}

// orZero reports a percentile of an empty sample (a layer the workload
// does not exercise) as 0.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// hostLine describes the machine the result was measured on.
func hostLine() string {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel(),
		"transport":  "loopback, in-process",
	}
	b, _ := json.Marshal(map[string]any{"host": host})
	return string(b)
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
