// The ingest engine: receivers → OD-sharded binning workers → the
// watermark-driven merge coordinator → the single central detector.
//
// The partition key is the export engine. An engine is an origin PoP, and
// the OD index space is laid out origin-major, so routing whole engines to
// shards gives each shard a disjoint set of OD columns — the merged dense
// vector is an exact concatenation, never a sum of contended cells — and
// keeps each (format, engine) sequence cursor and dedupe ring owned by
// exactly one worker. Scoring stays central: the subspace method is
// global, so the one StreamDetector consumes full-length vectors in bin
// order.
//
// One engine, two schedules. With Receivers and Shards both 1 the daemon
// runs inline: the receiver, the one shard worker and the coordinator step
// all run on the ingest caller's goroutine under pauseMu's write side, and
// a seal hands its detached bins straight to the detector. Otherwise
// every shard worker and the coordinator get their own goroutine, joined
// by channels, and a seal becomes an epoch that completes once every
// shard has answered. The gates (late, wild, stranded watermark), the
// seal and the reset are the same code on both schedules, so a daemon
// bins the same traffic the same way at any shard count.
//
// Bin-close correctness (the barrier argument, in short — DESIGN.md E18
// has the long form): the coordinator owns the watermark and is the only
// issuer of seals, each with a strictly increasing `through` bin. Shard
// channels are FIFO, so when a shard answers seal N it has binned every
// batch enqueued before the seal, and it drops any later batch for a bin
// ≤ N as late — a sealed partition can never reopen. An epoch completes
// only when all shards answered, epochs complete in issue order, and only
// completed epochs are submitted; therefore the detector sees every bin
// exactly once, fully merged, in ascending order.
package server

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"netwide"
	"netwide/internal/checkpoint"
	"netwide/internal/flowwire"
	"netwide/internal/topology"
	"netwide/internal/traffic"
)

const (
	// shardQueueDepth bounds each receiver→shard channel (in batches).
	// Bounded so a stalled shard applies backpressure to the receivers
	// instead of growing an unbounded queue; deep enough to ride out a
	// shard's seal handoff.
	shardQueueDepth = 256
	// maxOutstandingEpochs caps seal epochs in flight. With the merge
	// channel sized len(shards)*(maxOutstandingEpochs+1), every shard can
	// answer every outstanding epoch — plus the drain's final flush epoch
	// — without blocking, which is the pipeline's deadlock-freedom
	// argument: shards always drain their queues.
	maxOutstandingEpochs = 4
	// watermarkQuorum is how many consecutive routable packets one shard
	// must see stranded below the watermark before it asks the coordinator
	// to re-anchor the watermark.
	watermarkQuorum = 8
)

// receiver is one UDP socket's ingest front end: its own decoder registry
// (flowwire registries are not safe for concurrent use, and v9/IPFIX
// template state is per-socket anyway — the kernel hashes an exporter's
// packets to one socket, and exporters resend templates periodically) and
// its slice of the datagram counters.
type receiver struct {
	reg  *flowwire.Registry
	conn *net.UDPConn
	// recs is the inline engine's reusable record buffer (guarded by
	// pauseMu); the pipeline hands pooled slices to its shards instead.
	recs []flowwire.Record

	packets, badPackets, bytes atomic.Uint64
}

// shardWorker owns one partition of the OD space: its open-bin
// accumulators, sequence cursors and dedupe rings are touched only by the
// one goroutine running it (its own on the pipeline, the ingest caller's
// under pauseMu inline, and restore before either). The atomic fields are
// its slice of the stats counters, read lock-free by /stats.
type shardWorker struct {
	ch chan shardMsg // nil on the inline engine

	// Single-threaded worker state.
	bins          map[int]*binAcc
	seq           map[engineKey]*engineSeq
	sealedThrough int
	behindStreak  int

	// Stats mirrors.
	records, duplicates, lateRecords,
	wildRecords, unroutable atomic.Uint64
	binsOpen, sealed atomic.Int64
}

const (
	msgBatch = iota
	msgSeal
	msgReset
	msgSync
	msgStop
)

// shardMsg is the one message type on a receiver→shard channel. kind
// selects which fields are meaningful: a decoded batch (msgBatch, with
// the pooled record slice to return), a seal boundary, a watermark reset
// (keep open bins through `through`, lower the seal horizon to
// `horizon`), a sync ack request, or stop.
type shardMsg struct {
	kind    int
	batch   flowwire.Batch
	recs    *[]flowwire.Record
	epoch   uint64
	through int
	horizon int
	ack     chan<- struct{}
}

// sealReply is one shard's answer to one seal epoch: the detached bins of
// its partition through the epoch's boundary.
type sealReply struct {
	epoch uint64
	bins  []submittedBin
}

const (
	ctlQuiesce = iota
	ctlFlush
	ctlStop
)

// coordMsg is a control-plane request to the coordinator goroutine.
// ctlQuiesce settles every closeable bin and parks the coordinator until
// resume closes (checkpoint capture); ctlFlush seals everything through
// the watermark and drains (the graceful drain); ctlStop exits the loop.
type coordMsg struct {
	kind   int
	reply  chan struct{}
	resume chan struct{}
}

// recPool recycles decoded-record slices across receivers and shards.
// flowwire records are pure values (no aliasing into the packet buffer),
// so a slice can cross goroutines and be reused freely once its shard has
// folded it in.
var recPool = sync.Pool{New: func() any {
	s := make([]flowwire.Record, 0, 64)
	return &s
}}

// buildEngine allocates the receivers and shard workers, plus the
// channels when the daemon is pipelined. No goroutine starts here:
// restore must be able to fill shard state first.
func (s *Server) buildEngine() error {
	s.recvs = make([]*receiver, s.cfg.Receivers)
	for i := range s.recvs {
		reg, err := flowwire.NewRegistry(s.cfg.Formats...)
		if err != nil {
			return err
		}
		s.recvs[i] = &receiver{reg: reg}
	}
	s.shards = make([]*shardWorker, s.cfg.Shards)
	for i := range s.shards {
		w := &shardWorker{
			bins:          map[int]*binAcc{},
			seq:           map[engineKey]*engineSeq{},
			sealedThrough: -1,
		}
		if !s.inline {
			w.ch = make(chan shardMsg, shardQueueDepth)
		}
		w.sealed.Store(-1)
		s.shards[i] = w
	}
	if s.inline {
		return nil
	}
	s.mergeCh = make(chan sealReply, len(s.shards)*(maxOutstandingEpochs+1))
	s.coordBell = make(chan struct{}, 1)
	s.coordCtl = make(chan coordMsg)
	s.coordDone = make(chan struct{})
	s.cpBell = make(chan struct{}, 1)
	s.cpStop = make(chan struct{})
	return nil
}

// startEngine seeds the coordinator's cursors from whatever restore left
// behind and, when pipelined, launches the shard workers, the coordinator
// and (when checkpointing) the checkpointer.
func (s *Server) startEngine() {
	c := &s.coord
	c.watermark = int(s.ctr.watermark.Load())
	c.sealTarget = int(s.ctr.lastClosed.Load())
	for _, w := range s.shards {
		c.sealTarget = max(c.sealTarget, w.sealedThrough)
	}
	s.pendingObs.Store(int64(c.watermark))
	if s.inline {
		return
	}
	s.shardWG.Add(len(s.shards))
	for _, w := range s.shards {
		go s.shardLoop(w)
	}
	go s.coordinate()
	if s.cfg.CheckpointPath != "" {
		s.cpWG.Add(1)
		go s.checkpointer()
	}
}

// receiverLoop drains one socket until Drain or Kill closes it. Every
// supported format keeps its export packets under the common 1500-byte
// MTU; the buffer leaves headroom so an overlong datagram arrives intact
// and is rejected by the decoder instead of being silently truncated into
// a "valid" prefix.
func (s *Server) receiverLoop(r *receiver) {
	defer s.readersWG.Done()
	buf := make([]byte, 4096)
	for {
		n, _, err := r.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		s.ingestOn(r, buf[:n])
	}
}

// ingestOn runs one datagram through a receiver. Inline, the whole
// engine runs right here under pauseMu's write side: decode, bin on the
// one shard, then one coordinator step, which seals, submits and
// checkpoints whatever the datagram closed. Pipelined, the receiver
// decodes into a pooled record slice and routes the batch to its engine's
// shard; the channel send applies backpressure when the shard is behind.
// There pauseMu's read side makes a datagram atomic with respect to
// checkpoint capture: the capture's write lock waits out in-flight
// datagrams, then finds every batch either fully routed or not started.
func (s *Server) ingestOn(r *receiver, pkt []byte) {
	if s.inline {
		s.pauseMu.Lock()
		defer s.pauseMu.Unlock()
		b, recs, ok := s.decode(r, pkt, r.recs[:0])
		r.recs = recs
		if ok {
			s.shardIngest(s.shards[0], b, recs)
			s.step(&s.coord)
			if s.coord.cpDue {
				s.coord.cpDue = false
				s.capture() // failures land on Stats (persist's contract)
			}
		}
		return
	}
	s.pauseMu.RLock()
	defer s.pauseMu.RUnlock()
	bufp := recPool.Get().(*[]flowwire.Record)
	b, recs, ok := s.decode(r, pkt, (*bufp)[:0])
	*bufp = recs
	if !ok {
		recPool.Put(bufp)
		return
	}
	// Zero-record batches (v9/IPFIX template-only packets) still route:
	// the shard owns the stream's sequence cursor.
	s.shards[s.shardOf(b.Engine)].ch <- shardMsg{kind: msgBatch, batch: b, recs: bufp}
}

// decode decodes one datagram on the receiver's registry into dst and
// attributes the packet counters. Decode attributes even failed packets
// to a format when the version word detected one; garbage that detects as
// nothing only reaches the global counters. ok is false for a rejected
// datagram.
func (s *Server) decode(r *receiver, pkt []byte, dst []flowwire.Record) (b flowwire.Batch, recs []flowwire.Record, ok bool) {
	b, recs, err := r.reg.Decode(pkt, dst)
	s.ctr.packets.Add(1)
	r.packets.Add(1)
	r.bytes.Add(uint64(len(pkt)))
	var pc *protoCounters
	if b.Format != flowwire.FormatUnknown && b.Format < flowwire.NumFormats {
		pc = &s.proto[b.Format]
		pc.packets.Add(1)
	}
	if err != nil {
		s.ctr.badPackets.Add(1)
		r.badPackets.Add(1)
		if pc != nil {
			pc.badPackets.Add(1)
		}
		return b, recs, false
	}
	return b, recs, true
}

// shardLoop is one pipelined binning worker: accumulate batches, answer
// seals, apply resets, serve syncs.
func (s *Server) shardLoop(w *shardWorker) {
	defer s.shardWG.Done()
	for m := range w.ch {
		switch m.kind {
		case msgBatch:
			s.shardIngest(w, m.batch, *m.recs)
			recPool.Put(m.recs)
		case msgSeal:
			// Never blocks: mergeCh is sized for every outstanding epoch.
			s.mergeCh <- sealReply{epoch: m.epoch, bins: w.seal(m.through)}
		case msgReset:
			s.resetShard(w, m.through, m.horizon)
		case msgSync:
			m.ack <- struct{}{}
		case msgStop:
			return
		}
	}
}

// shardIngest is the per-batch body after decode: sequence dedupe on the
// shard's own cursors, the stranded-watermark streak, the late and wild
// gates, and accumulation into the shard's partition. The late gate is
// the shard's seal horizon, which is what makes "a sealed bin never
// reopens" a single-goroutine invariant.
func (s *Server) shardIngest(w *shardWorker, b flowwire.Batch, recs []flowwire.Record) {
	pc := &s.proto[b.Format]
	if !s.sequenceCheck(w.seq, b) {
		s.ctr.duplicates.Add(1)
		w.duplicates.Add(1)
		pc.duplicates.Add(1)
		return
	}
	if int64(b.UnixSecs) < int64(s.cfg.Epoch) {
		// Before bin 0 — and integer division would truncate it INTO bin 0.
		s.ctr.lateRecords.Add(uint64(len(recs)))
		w.lateRecords.Add(uint64(len(recs)))
		return
	}
	bin := int(int64(b.UnixSecs)-int64(s.cfg.Epoch)) / traffic.BinSeconds
	// Gate against the shared observation cursor, not the coordinator-
	// published watermark: shards raise pendingObs synchronously as they
	// accept traffic, while the watermark only moves when the coordinator
	// runs. On a starved scheduler the watermark can lag the live stream
	// by more than MaxAhead bins, and gating on it would drop legitimate
	// in-order traffic as wild. pendingObs is raised only by accepted
	// routable traffic, never by a packet the wild gate refuses.
	obs := int(s.pendingObs.Load())
	// Stranded-watermark streak: routable traffic consistently far below
	// the watermark yet above LastClosed means the watermark is stranded —
	// a far-future first packet or an exporter clock jump (MaxAhead can't
	// bound the first packet: there is nothing to bound it against). The
	// check runs before the late gate because a stranded watermark seals
	// every bin below it, so the traffic proving it stranded is exactly
	// what the late gate drops. In normal operation LastClosed trails the
	// watermark by about Grace < MaxAhead, so the interval is empty and
	// spoofed old timestamps cannot trigger a reset.
	behind := obs-bin > s.cfg.MaxAhead && bin > int(s.ctr.lastClosed.Load()) && s.routable(b, recs)
	if behind {
		w.behindStreak++
		if w.behindStreak >= watermarkQuorum {
			w.behindStreak = 0
			s.resetBin.Store(int64(bin))
			s.resetReq.Store(true)
			s.ringCoordBell()
		}
	}
	if bin <= w.sealedThrough {
		s.ctr.lateRecords.Add(uint64(len(recs)))
		w.lateRecords.Add(uint64(len(recs)))
		return
	}
	if obs >= 0 && bin > obs+s.cfg.MaxAhead {
		// The bin timestamp is untrusted input and it drives every bin
		// close: refusing wild jumps keeps one spoofed datagram from
		// force-closing partial bins and parking the watermark out of
		// legitimate traffic's reach.
		s.ctr.wildRecords.Add(uint64(len(recs)))
		w.wildRecords.Add(uint64(len(recs)))
		return
	}
	accepted, unroutable, wild := s.accumulateInto(w.bins, bin, b, recs)
	if unroutable > 0 {
		s.ctr.unroutable.Add(uint64(unroutable))
		w.unroutable.Add(uint64(unroutable))
	}
	if wild > 0 {
		s.ctr.wildRecords.Add(uint64(wild))
		w.wildRecords.Add(uint64(wild))
	}
	if accepted > 0 {
		s.ctr.records.Add(uint64(accepted))
		w.records.Add(uint64(accepted))
		pc.records.Add(uint64(accepted))
	}
	w.binsOpen.Store(int64(len(w.bins)))
	switch {
	case accepted == 0:
		// Only routable traffic gets a say in the watermark.
	case bin > obs:
		s.raiseObs(bin)
		w.behindStreak = 0
	case !behind:
		w.behindStreak = 0
	}
}

// routable reports whether any of the batch's records resolves to an OD
// pair — the same test accumulateInto applies before folding a record in.
func (s *Server) routable(b flowwire.Batch, recs []flowwire.Record) bool {
	if !s.top.ContainsPoP(topology.PoP(b.Engine)) {
		return false
	}
	for _, rec := range recs {
		if _, ok := s.res.ResolveDst(rec.Dst); ok {
			return true
		}
	}
	return false
}

// seal detaches the worker's open bins through the boundary, in ascending
// order, and raises its seal horizon: from here on a record for a bin at
// or below it is late.
func (w *shardWorker) seal(through int) []submittedBin {
	bins := detachBins(w.bins, through)
	w.sealedThrough = max(w.sealedThrough, through)
	w.sealed.Store(int64(w.sealedThrough))
	w.binsOpen.Store(int64(len(w.bins)))
	return bins
}

// resetShard applies a watermark reset to one worker: open bins above
// keepThrough are discarded as wild (their contents were the lie that
// moved the watermark), and the seal horizon drops to horizon.
func (s *Server) resetShard(w *shardWorker, keepThrough, horizon int) {
	if wild := discardWildBins(w.bins, keepThrough); wild > 0 {
		s.ctr.wildRecords.Add(wild)
		w.wildRecords.Add(wild)
	}
	w.sealedThrough = horizon
	w.sealed.Store(int64(horizon))
	w.binsOpen.Store(int64(len(w.bins)))
	w.behindStreak = 0
}

// discardWildBins drops every open bin above keepThrough, returning the
// record count they held.
func discardWildBins(bins map[int]*binAcc, keepThrough int) (wild uint64) {
	for b, acc := range bins {
		if b > keepThrough {
			wild += acc.records
			delete(bins, b)
		}
	}
	return wild
}

// raiseObs lifts the shared highest-observed-bin cursor (CAS max) and
// wakes the coordinator. This is the only watermark input shards produce;
// the coordinator is the only watermark writer.
func (s *Server) raiseObs(bin int) {
	b := int64(bin)
	for {
		cur := s.pendingObs.Load()
		if cur >= b {
			return
		}
		if s.pendingObs.CompareAndSwap(cur, b) {
			s.ringCoordBell()
			return
		}
	}
}

// ringCoordBell wakes the coordinator goroutine without blocking (the bell
// holds at most one pending wake; the coordinator always re-reads the
// shared cursors when it wakes). Inline there is no bell: the ingest
// caller steps the coordinator itself after every datagram.
func (s *Server) ringCoordBell() {
	select {
	case s.coordBell <- struct{}{}:
	default:
	}
}

// coordinator is the merge layer's state: the single owner of the
// watermark, the seal schedule and the detector submit order. The
// coordinator goroutine owns it on a pipelined daemon; inline, the ingest
// caller steps it under pauseMu.
type coordinator struct {
	watermark, sealTarget int
	epochs                []*epochState
	nextEpoch             uint64
	// cpDue asks the inline ingest caller for a bin-cadence snapshot.
	cpDue bool
}

// epochState is one outstanding seal epoch: how many shards still owe an
// answer, and the merged bins so far. Each OD column is owned by one
// shard, so merging is elementwise addition into disjoint cells — exact in
// float64 (the sums are integer counts below 2^53).
type epochState struct {
	id      uint64
	pending int
	bins    map[int]*binAcc
}

// step folds the shards' signals into the watermark and issues the seal
// it allows: a requested watermark reset first, then the highest observed
// bin, then one seal through watermark−Grace.
func (s *Server) step(c *coordinator) {
	if s.resetReq.Load() && s.resetReq.CompareAndSwap(true, false) {
		s.resetWatermark(c, int(s.resetBin.Load()))
	}
	if obs := int(s.pendingObs.Load()); obs > c.watermark {
		c.watermark = obs
		s.ctr.watermark.Store(int64(obs))
	}
	if through := c.watermark - s.cfg.Grace; through > c.sealTarget && len(c.epochs) < maxOutstandingEpochs {
		s.seal(c, through)
	}
}

// seal closes every shard's partition through the boundary. Inline, the
// one shard's detached bins go straight to the detector; pipelined, the
// seal becomes an epoch that completes once every shard has answered.
func (s *Server) seal(c *coordinator, through int) {
	c.sealTarget = through
	if s.inline {
		s.finish(s.shards[0].seal(through))
		return
	}
	ep := &epochState{id: c.nextEpoch, pending: len(s.shards), bins: map[int]*binAcc{}}
	c.nextEpoch++
	c.epochs = append(c.epochs, ep)
	for _, w := range s.shards {
		w.ch <- shardMsg{kind: msgSeal, epoch: ep.id, through: through}
	}
}

// finish submits closed bins (ascending) to the detector, advances the
// close counters and runs the bin-driven checkpoint cadence: a due
// snapshot wakes the pipelined checkpointer, or is taken by the inline
// ingest caller once its datagram is through. Either way the drain's
// final flush triggers none — the drain writes its own.
func (s *Server) finish(closed []submittedBin) {
	if len(closed) == 0 {
		return
	}
	s.ctr.lastClosed.Store(int64(closed[len(closed)-1].bin))
	s.ctr.binsClosed.Add(int64(len(closed)))
	s.submit(closed)
	if s.cfg.CheckpointPath == "" || s.binsSinceCp.Add(int64(len(closed))) < int64(s.cfg.CheckpointEvery) {
		return
	}
	if s.inline {
		s.coord.cpDue = true
		return
	}
	select {
	case s.cpBell <- struct{}{}:
	default:
	}
}

// fold merges one shard's seal reply into its epoch.
func (s *Server) fold(c *coordinator, rep sealReply) {
	for _, ep := range c.epochs {
		if ep.id != rep.epoch {
			continue
		}
		ep.pending--
		for _, sb := range rep.bins {
			if acc := ep.bins[sb.bin]; acc == nil {
				ep.bins[sb.bin] = sb.acc
			} else {
				for i := range acc.bytes {
					acc.bytes[i] += sb.acc.bytes[i]
					acc.packets[i] += sb.acc.packets[i]
					acc.flows[i] += sb.acc.flows[i]
				}
				acc.records += sb.acc.records
			}
		}
		return
	}
}

// completeReady finishes the completed epochs at the head of the queue.
// Epochs complete strictly in issue order: their through bounds increase,
// so in-order completion is what keeps the submit stream ascending.
func (s *Server) completeReady(c *coordinator) {
	for len(c.epochs) > 0 && c.epochs[0].pending == 0 {
		ep := c.epochs[0]
		// The backing array outlives the slice head: drop the reference so
		// the finished epoch's vectors are not kept alive by it.
		c.epochs[0] = nil
		c.epochs = c.epochs[1:]
		closed := make([]submittedBin, 0, len(ep.bins))
		for bin, acc := range ep.bins {
			closed = append(closed, submittedBin{bin, acc})
		}
		sort.Slice(closed, func(i, j int) bool { return closed[i].bin < closed[j].bin })
		s.finish(closed)
	}
}

// drainEpochs waits out every outstanding epoch (none exist inline).
func (s *Server) drainEpochs(c *coordinator) {
	for len(c.epochs) > 0 {
		s.fold(c, <-s.mergeCh)
		s.completeReady(c)
	}
}

// resetWatermark re-anchors a stranded watermark at the bin the live
// stream actually flows in. The in-flight epochs drain first, so
// LastClosed is final; a request at or below it is stale and dropped.
// Otherwise open bins above bin+MaxAhead are discarded as wild and every
// shard's seal horizon drops to LastClosed. Lowering the horizon is safe:
// with no epoch in flight, every sealed bin above LastClosed was empty in
// every shard, so nothing already submitted can reopen. When this returns
// every shard has applied the reset.
func (s *Server) resetWatermark(c *coordinator, bin int) {
	s.drainEpochs(c)
	last := int(s.ctr.lastClosed.Load())
	if bin <= last {
		return
	}
	keep := bin + s.cfg.MaxAhead
	if s.inline {
		s.resetShard(s.shards[0], keep, last)
	} else {
		for _, w := range s.shards {
			w.ch <- shardMsg{kind: msgReset, through: keep, horizon: last}
		}
		s.syncShards()
	}
	c.watermark, c.sealTarget = bin, last
	s.ctr.watermark.Store(int64(bin))
	s.pendingObs.Store(int64(bin))
	s.ctr.watermarkResets.Add(1)
}

// settleCoord closes everything the watermark allows and waits for it to
// be submitted.
func (s *Server) settleCoord(c *coordinator) {
	for {
		s.step(c)
		if len(c.epochs) == 0 {
			return
		}
		s.drainEpochs(c)
	}
}

// flushCoord is the drain's final close: everything through the watermark
// itself, grace abandoned — no more traffic is coming to fill it.
func (s *Server) flushCoord(c *coordinator) {
	s.settleCoord(c)
	if c.watermark > c.sealTarget {
		s.seal(c, c.watermark)
		s.drainEpochs(c)
	}
}

// coordinate is the pipelined daemon's coordinator goroutine.
func (s *Server) coordinate() {
	defer close(s.coordDone)
	c := &s.coord
	for {
		select {
		case <-s.coordBell:
			s.step(c)
			s.completeReady(c)
		case rep := <-s.mergeCh:
			s.fold(c, rep)
			s.completeReady(c)
			s.step(c)
		case msg := <-s.coordCtl:
			switch msg.kind {
			case ctlQuiesce:
				s.settleCoord(c)
				close(msg.reply)
				<-msg.resume
			case ctlFlush:
				s.flushCoord(c)
				close(msg.reply)
			case ctlStop:
				close(msg.reply)
				return
			}
		}
	}
}

// checkpointer serializes the pipelined bin-cadence snapshots off the
// coordinator's critical path: the coordinator only rings a bell, and
// captures that would overlap collapse into one.
func (s *Server) checkpointer() {
	defer s.cpWG.Done()
	for {
		select {
		case <-s.cpStop:
			return
		case <-s.cpBell:
			// Failures land on Stats (persist's contract); a capture
			// declined because a drain started is equally fine — the drain
			// writes the final snapshot.
			s.CheckpointNow()
		}
	}
}

// syncShards barriers every shard channel: when it returns, every message
// enqueued before the call has been handled by its shard.
func (s *Server) syncShards() {
	ack := make(chan struct{}, len(s.shards))
	for _, w := range s.shards {
		w.ch <- shardMsg{kind: msgSync, ack: ack}
	}
	for range s.shards {
		<-ack
	}
}

// settle brings the engine to a barrier — every routed batch binned,
// every closeable bin sealed, merged and submitted — and returns the
// function that releases it. Pipelined, the coordinator stays parked
// until then, so the shards' state may be read from the caller's
// goroutine; inline the engine is already settled whenever the caller
// holds pauseMu. Callers hold pauseMu's write side, or have stopped every
// receiver.
func (s *Server) settle() (resume func()) {
	if s.inline {
		return func() {}
	}
	s.syncShards()
	reply := make(chan struct{})
	parked := make(chan struct{})
	s.coordCtl <- coordMsg{kind: ctlQuiesce, reply: reply, resume: parked}
	<-reply
	return func() { close(parked) }
}

// quiesce settles the engine to a barrier and resumes it. Tests and
// benchmarks use it to read deterministic stats.
func (s *Server) quiesce() {
	s.pauseMu.Lock()
	defer s.pauseMu.Unlock()
	s.settle()()
}

// flush runs the drain's final seal: everything through the watermark,
// merged and submitted. Callers have stopped every receiver.
func (s *Server) flush() {
	if s.inline {
		s.flushCoord(&s.coord)
		return
	}
	s.syncShards()
	reply := make(chan struct{})
	s.coordCtl <- coordMsg{kind: ctlFlush, reply: reply}
	<-reply
}

// capture takes one snapshot of a settled engine: every shard's partition
// state, the receivers' template caches, the counters and the detector
// barrier, all describing the same instant. Callers hold pauseMu's write
// side, or have stopped every receiver.
func (s *Server) capture() error {
	resume := s.settle()
	defer resume()
	states := make([]checkpoint.ShardState, len(s.shards))
	for i, w := range s.shards {
		states[i] = w.state()
	}
	regs := make([]*flowwire.Registry, len(s.recvs))
	for i, r := range s.recvs {
		regs[i] = r.reg
	}
	return s.persist(func(cp netwide.StreamCheckpoint) *checkpoint.State {
		st := s.baseState(cp)
		st.Server.Shards = states
		st.Server.Templates = templatesOf(regs...)
		return st
	})
}

// stopEngine stops the pipelined daemon's checkpointer, coordinator and
// shard workers (a no-op inline). Callers hold cpMu after stopCheckpointer.
func (s *Server) stopEngine() {
	if s.inline {
		return
	}
	reply := make(chan struct{})
	s.coordCtl <- coordMsg{kind: ctlStop, reply: reply}
	<-reply
	<-s.coordDone
	for _, w := range s.shards {
		w.ch <- shardMsg{kind: msgStop}
	}
	s.shardWG.Wait()
}

// stopCheckpointer ends the pipelined bin-cadence checkpointer, letting an
// in-flight capture finish first.
func (s *Server) stopCheckpointer() {
	if s.cpStop != nil {
		close(s.cpStop)
		s.cpWG.Wait()
	}
}
