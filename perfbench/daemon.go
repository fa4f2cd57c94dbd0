package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/server"
)

// life is one daemon process lifetime: New to Drain, or New to Kill.
type life struct {
	srv    *server.Server
	poll   *poller
	before server.Stats // counters at start (restored ones after a restore)
	after  server.Stats
	ledger []netwide.Anomaly
	// sent[b-from] is when bin b's first datagram was due: its scheduled
	// time in an open loop, the moment it was fed in a closed loop.
	sent      []time.Time
	from      int
	grace     int // the daemon's reorder window in bins
	b0, b1    int // bins fed in this life
	fed       int // records fed
	datagrams int
}

func newLife(srv *server.Server, in *inputs) *life {
	return &life{
		srv:    srv,
		poll:   startPoller(srv),
		before: srv.Stats(),
		sent:   make([]time.Time, in.to-in.from),
		from:   in.from,
		grace:  in.w.graceBins(),
	}
}

// end stops the poller and takes the final counters and ledger.
func (l *life) end() {
	l.poll.halt()
	l.after = l.srv.Stats()
	l.ledger = l.srv.Anomalies()
}

// poller samples Server.Stats every millisecond. The anomaly ledger is
// append-only, so the first sample showing more than k anomalies dates
// ledger entry k; queue gauges are tracked as maxima.
type poller struct {
	srv                 *server.Server
	stop, done          chan struct{}
	appeared            []time.Time
	shardQMax, mergeMax int
}

func startPoller(srv *server.Server) *poller {
	p := &poller{srv: srv, stop: make(chan struct{}), done: make(chan struct{})}
	// Restored ledger entries carry no date.
	p.appeared = make([]time.Time, srv.Stats().Anomalies)
	go p.loop()
	return p
}

func (p *poller) loop() {
	defer close(p.done)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		st := p.srv.Stats()
		now := time.Now()
		for len(p.appeared) < st.Anomalies {
			p.appeared = append(p.appeared, now)
		}
		for _, sh := range st.Shards {
			p.shardQMax = max(p.shardQMax, sh.QueueLen)
		}
		p.mergeMax = max(p.mergeMax, st.MergeQueueLen)
	}
}

func (p *poller) halt() {
	close(p.stop)
	<-p.done
}

// latencies returns, in ms, how long each anomaly this life emitted took
// to appear after the datagram that let its event close was due: an event
// ending at bin e closes on the verdict of bin e+2, which the daemon
// submits when bin e+2+grace opens. Anomalies whose trigger bin was not
// fed in this life (the drain-time tail, restored entries) are skipped.
func (l *life) latencies() []float64 {
	var out []float64
	for k := l.before.Anomalies; k < len(l.ledger) && k < len(l.poll.appeared); k++ {
		trig := l.ledger[k].EndBin + 2 + l.grace
		if trig < l.b0 || trig >= l.b1 {
			continue
		}
		out = append(out, float64(l.poll.appeared[k].Sub(l.sent[trig-l.from]))/float64(time.Millisecond))
	}
	return out
}

// spanIDs are the interned names of the per-call daemon spans.
type spanIDs struct{ ingest, binClose, cpClose uint16 }

func (t *tracer) daemonIDs() spanIDs {
	return spanIDs{t.id("server.ingest"), t.id("server.bin_close"), t.id("server.checkpoint_close")}
}

// feedClosed feeds bins [b0, b1) of wr through Server.IngestPacket, one
// caller, back to back. Traced, every call is a span: the call carrying a
// bin's first datagram opens that bin (and closes the one grace bins
// behind), and a close that wrote a snapshot is told apart by the
// checkpoint counter.
func (l *life) feedClosed(wr *wire, b0, b1 int, tr *tracer, parent int32) {
	l.b0, l.b1 = b0, b1
	var ids spanIDs
	var cps uint64
	if tr != nil {
		ids = tr.daemonIDs()
		cps = l.srv.Stats().CheckpointsWritten
	}
	for b := b0; b < b1; b++ {
		i0, i1 := wr.binRange(b)
		l.sent[b-l.from] = time.Now()
		for i := i0; i < i1; i++ {
			if tr == nil {
				l.srv.IngestPacket(wr.dgrams[i])
				continue
			}
			s := time.Now()
			l.srv.IngestPacket(wr.dgrams[i])
			e := time.Now()
			name := ids.ingest
			if i == i0 {
				name = ids.binClose
				if n := l.srv.Stats().CheckpointsWritten; n > cps {
					name, cps = ids.cpClose, n
				}
			}
			tr.add(name, parent, s, e)
		}
		l.fed += wr.recs[b-wr.from]
		l.datagrams += i1 - i0
	}
}

// feedOpen sends every datagram of wr over loopback UDP on a fixed
// schedule of pps datagrams per second, from one goroutine over the given
// source sockets; each export engine sticks to one socket, so its sequence
// stream stays in order. It returns how late the generator ran at worst.
func (l *life) feedOpen(wr *wire, pps int, conns []*net.UDPConn) (time.Duration, error) {
	l.b0, l.b1 = wr.from, wr.to
	interval := time.Second / time.Duration(pps)
	start := time.Now()
	for b := wr.from; b < wr.to; b++ {
		i0, _ := wr.binRange(b)
		l.sent[b-l.from] = start.Add(time.Duration(i0) * interval)
	}
	var late time.Duration
	for i, d := range wr.dgrams {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		} else {
			late = max(late, -wait)
		}
		if _, err := conns[wr.engine[i]%uint32(len(conns))].Write(d); err != nil {
			return late, fmt.Errorf("send datagram %d: %w", i, err)
		}
	}
	l.fed = wr.records(wr.from, wr.to)
	l.datagrams = len(wr.dgrams)
	return late, nil
}

// senders dials one source socket per receiver of the daemon. The kernel
// spreads SO_REUSEPORT traffic by a salted hash of the 4-tuple, so two
// sockets dialled blindly land on the same receiver half the time; each
// candidate instead sends one undecodable byte, and the receiver whose
// packet counter moves claims it. Call before the life's counters are
// taken: the probes count as bad packets.
func senders(srv *server.Server, receivers int) ([]*net.UDPConn, error) {
	raddr, ok := srv.UDPAddr().(*net.UDPAddr)
	if !ok {
		return nil, fmt.Errorf("daemon has no UDP address")
	}
	conns := make([]*net.UDPConn, receivers)
	found := 0
	for try := 0; try < 64 && found < receivers; try++ {
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return nil, fmt.Errorf("dial daemon: %w", err)
		}
		before := srv.Stats().Receivers
		if _, err := c.Write([]byte{0xff}); err != nil {
			c.Close()
			return nil, fmt.Errorf("probe daemon: %w", err)
		}
		hit := -1
		for wait := 0; hit < 0 && wait < 1000; wait++ {
			for i, r := range srv.Stats().Receivers {
				if i < len(before) && r.Packets > before[i].Packets {
					hit = i
				}
			}
			if hit < 0 {
				time.Sleep(time.Millisecond)
			}
		}
		if hit >= 0 && hit < receivers && conns[hit] == nil {
			conns[hit] = c
			found++
		} else {
			c.Close()
		}
	}
	if found < receivers {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, fmt.Errorf("no source sockets reach all %d receivers", receivers)
	}
	return conns, nil
}

// quiesce waits until the daemon has read every datagram sent, or until
// its packet counter stops moving for half a second (socket loss).
func (l *life) quiesce() {
	want := l.before.Packets + uint64(l.datagrams)
	last, still := uint64(0), time.Now()
	for {
		got := l.srv.Stats().Packets
		if got >= want {
			return
		}
		if got != last {
			last, still = got, time.Now()
		} else if time.Since(still) > 500*time.Millisecond {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// httpLoad GETs the anomaly and stats endpoints ten times a second each
// until stop closes, timing every request in ms.
type httpLoad struct {
	stop, done   chan struct{}
	anoms, stats []float64
	err          error
}

func startHTTPLoad(addr net.Addr) *httpLoad {
	h := &httpLoad{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		client := &http.Client{Timeout: 10 * time.Second}
		defer client.CloseIdleConnections()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		get := func(path string) (float64, error) {
			t0 := time.Now()
			resp, err := client.Get("http://" + addr.String() + path)
			if err != nil {
				return 0, err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("GET %s: %s", path, resp.Status)
			}
			return float64(time.Since(t0)) / float64(time.Millisecond), err
		}
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			a, err := get("/api/v1/anomalies")
			if err == nil {
				var s float64
				s, err = get("/api/v1/stats")
				h.anoms, h.stats = append(h.anoms, a), append(h.stats, s)
			}
			if err != nil && h.err == nil {
				h.err = err
			}
		}
	}()
	return h
}

func (h *httpLoad) halt() error {
	close(h.stop)
	<-h.done
	return h.err
}

// iteration is one measured daemon cycle: set-up, the timed feed through
// Drain, and the checks on what came out.
type iteration struct {
	setupS  float64
	timedS  float64 // first datagram fed → Drain returned
	cpuS    float64
	allocMB float64
	heapMB  float64
	records int // unique records of the replayed bins
	lat     []float64
	lives   []*life
	match   matchResult
	lateMax time.Duration
	http    *httpLoad
	// restart workload only
	restoreMS  float64
	ckptBytes  int64
	ckptReadMS float64
}

// final is the life that drained.
func (it *iteration) final() *life { return it.lives[len(it.lives)-1] }

// runIteration runs the workload once. scratch is a directory the run may
// write (checkpoints); tr, when non-nil, records per-call spans.
func runIteration(in *inputs, scratch string, tr *tracer, parent int32) (*iteration, error) {
	w := in.w
	it := &iteration{records: in.stream.records(in.from, in.to)}
	root := tr.open("iteration", parent)
	defer tr.close(root)
	ckpt := ""
	if w.checkpointEvery > 0 {
		dir, err := os.MkdirTemp(scratch, "ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ckpt = filepath.Join(dir, "daemon.nwcp")
	}
	cfg := w.daemonConfig(ckpt)
	heap0 := liveHeap()

	sp := tr.open("server.setup", root)
	t0 := time.Now()
	srv, err := startDaemon(in.run, cfg)
	if err != nil {
		return nil, err
	}
	it.setupS = time.Since(t0).Seconds()
	tr.close(sp)

	var conns []*net.UDPConn
	if w.pps > 0 {
		if conns, err = senders(srv, w.receivers); err != nil {
			srv.Kill()
			return nil, err
		}
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
	}
	cpu0, alloc0 := cpuSeconds(), totalAlloc()
	feed := tr.open("feed", root)
	start := time.Now()
	l := newLife(srv, in)
	it.lives = append(it.lives, l)
	switch {
	case w.pps > 0:
		it.http = startHTTPLoad(srv.HTTPAddr())
		late, err := l.feedOpen(in.stream, w.pps, conns)
		it.lateMax = late
		if err != nil {
			srv.Kill()
			it.http.halt()
			return nil, err
		}
		l.quiesce()
		if err := it.http.halt(); err != nil {
			srv.Kill()
			return nil, fmt.Errorf("http: %w", err)
		}
	case w.checkpointEvery > 0:
		l.feedClosed(in.stream, in.from, in.half, tr, feed)
		ks := tr.open("server.kill", feed)
		srv.Kill()
		tr.close(ks)
		l.end()
		rs := tr.open("checkpoint.restore", feed)
		t := time.Now()
		if srv, err = startDaemon(in.run, cfg); err != nil {
			return nil, err
		}
		it.restoreMS = float64(time.Since(t)) / float64(time.Millisecond)
		tr.close(rs)
		l = newLife(srv, in)
		it.lives = append(it.lives, l)
		l.feedClosed(in.resume, in.restoreAt+1, in.to, tr, feed)
	default:
		l.feedClosed(in.stream, in.from, in.to, tr, feed)
	}
	ds := tr.open("server.drain", feed)
	err = srv.Drain(context.Background())
	tr.close(ds)
	it.timedS = time.Since(start).Seconds()
	tr.close(feed)
	it.cpuS = cpuSeconds() - cpu0
	it.allocMB = float64(totalAlloc()-alloc0) / (1 << 20)
	l.end()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	it.heapMB = float64(int64(liveHeap())-int64(heap0)) / (1 << 20)
	if ckpt != "" {
		t := time.Now()
		if _, err := checkpoint.ReadFile(ckpt); err != nil {
			return nil, fmt.Errorf("read final snapshot: %w", err)
		}
		it.ckptReadMS = float64(time.Since(t)) / float64(time.Millisecond)
		if fi, err := os.Stat(ckpt); err == nil {
			it.ckptBytes = fi.Size()
		}
	}
	for _, l := range it.lives {
		it.lat = append(it.lat, l.latencies()...)
		l.srv = nil
	}
	it.match = matchAnomalies(l.ledger, in.ref)
	return it, nil
}

// startDaemon is the set-up a user waits for: New (training, or restore
// from the snapshot) plus Start.
func startDaemon(run *netwide.Run, cfg server.Config) (*server.Server, error) {
	srv, err := server.New(run, cfg)
	if err != nil {
		return nil, fmt.Errorf("new daemon: %w", err)
	}
	if err := srv.Start(); err != nil {
		srv.Kill()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	return srv, nil
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
