package main

import (
	"fmt"
	"runtime"
	"time"

	"netwide"
	"netwide/internal/classify"
	"netwide/internal/dataset"
	"netwide/internal/engine"
	"netwide/internal/events"
	"netwide/internal/flowwire"
	"netwide/internal/identify"
	"netwide/internal/mat"
)

// The daemon hides its decoder, models, aggregator and classifier, so the
// traced run times those layers by replaying the workload's own inputs
// through their public functions: the same datagrams, the same closed-bin
// vectors (a lossless daemon rebuilds the simulated matrices bit for bit)
// and the same events, in the order the daemon's lane workers use them.

// replayDecode decodes every datagram of the workload with a fresh
// registry, one span per datagram, then repeats the pass untimed to count
// allocations.
func replayDecode(in *inputs, tr *tracer, parent int32, out metrics) error {
	ph := tr.open("layer.flowwire", parent)
	defer tr.close(ph)
	id := tr.id("flowwire.decode")
	reg, err := flowwire.NewRegistry(in.w.format)
	if err != nil {
		return err
	}
	var buf []flowwire.Record
	recs, errs := 0, 0
	for _, d := range in.stream.dgrams {
		s := time.Now()
		_, got, err := reg.Decode(d, buf[:0])
		tr.add(id, ph, s, time.Now())
		buf = got
		if err != nil {
			errs++
			continue
		}
		recs += len(got)
	}
	if recs != in.stream.records(in.from, in.to) {
		return fmt.Errorf("flowwire decoded %d records, %d were encoded", recs, in.stream.records(in.from, in.to))
	}
	out.set("flowwire.decode_ns_per_rec", tr.total("flowwire.decode", time.Nanosecond)/float64(recs), "ns")
	out.set("flowwire.decode_errors", float64(errs), "count")

	reg, _ = flowwire.NewRegistry(in.w.format)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, d := range in.stream.dgrams {
		_, buf, _ = reg.Decode(d, buf[:0])
	}
	runtime.ReadMemStats(&ms1)
	out.set("flowwire.decode_allocs_per_dgram", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(in.stream.dgrams)), "count")
	return nil
}

// replayDetect fits the per-measure models, then scores, attributes,
// aggregates and classifies the replayed bins the way the stream lanes
// and characterize goroutine do: batches of BatchSize bins scored against
// the updater's model (one bin at a time under an in-band updater), each
// alarm attributed against the model that scored it, every scored bin
// observed by the updater, the per-bin detections fed to an incremental
// aggregator and each closed event classified.
func replayDetect(in *inputs, tr *tracer, parent int32, out metrics) error {
	ph := tr.open("layer.detect", parent)
	defer tr.close(ph)
	ds := in.run.Dataset()
	cfg := in.w.stream
	opts := engine.DefaultOptions()
	idFit, idScore, idAttr, idUpd := tr.id("engine.fit"), tr.id("engine.score"), tr.id("identify.attribute"), tr.id("engine.update")
	dets := make([][]events.Detection, in.to-in.from)
	alarms := 0
	for m := dataset.Measure(0); m < dataset.NumMeasures; m++ {
		s := time.Now()
		model, err := engine.Fit(ds.Matrix(m).HeadRows(cfg.TrainBins), opts)
		tr.add(idFit, ph, s, time.Now())
		if err != nil {
			return fmt.Errorf("fit %v: %w", m, err)
		}
		up, err := engine.NewUpdater(engine.UpdaterKind(cfg.Updater), model, engine.UpdaterConfig{RefitEvery: cfg.RefitEvery, Window: cfg.Window})
		if err != nil {
			return fmt.Errorf("updater %v: %w", m, err)
		}
		x := ds.Matrix(m)
		var bins []int
		var vecs [][]float64
		var pts []engine.Point
		flush := func() error {
			if len(bins) == 0 {
				return nil
			}
			model := up.Model()
			s := time.Now()
			pts, err = model.ScoreBatch(vecs, pts[:0])
			tr.add(idScore, ph, s, time.Now())
			if err != nil {
				return fmt.Errorf("score %v: %w", m, err)
			}
			for i, b := range bins {
				if !pts[i].SPEAlarm && !pts[i].T2Alarm {
					continue
				}
				s := time.Now()
				atts, err := identify.AttributeLive(model, b, vecs[i], pts[i])
				tr.add(idAttr, ph, s, time.Now())
				if err != nil {
					return fmt.Errorf("attribute %v bin %d: %w", m, b, err)
				}
				for _, a := range atts {
					alarms++
					dets[b-in.from] = append(dets[b-in.from], events.Detection{Measure: m, Bin: a.Alarm.Bin, ODs: a.ODs, Residuals: a.Residuals})
				}
			}
			bins, vecs = bins[:0], vecs[:0]
			return nil
		}
		for b := in.from; b < in.to; b++ {
			bins, vecs = append(bins, b), append(vecs, x.RowView(b))
			if up.InBand() || len(bins) >= cfg.BatchSize {
				if err := flush(); err != nil {
					return err
				}
			}
			s := time.Now()
			_, err := up.Observe(x.RowView(b))
			tr.add(idUpd, ph, s, time.Now())
			if err != nil {
				return fmt.Errorf("update %v bin %d: %w", m, b, err)
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	bins := float64(in.to - in.from)
	out.set("engine.fit_ms", tr.total("engine.fit", time.Millisecond), "ms")
	out.set("engine.score_us_per_bin", tr.total("engine.score", time.Microsecond)/bins, "us")
	out.set("engine.update_us_per_bin", tr.total("engine.update", time.Microsecond)/bins, "us")
	out.set("identify.attribute_us_per_alarm", tr.total("identify.attribute", time.Microsecond)/float64(max(alarms, 1)), "us")
	out.set("identify.alarms", float64(alarms), "count")

	idAdd, idCls := tr.id("events.add"), tr.id("classify.event")
	agg := events.NewAggregator()
	var closed []events.Event
	for b := in.from; b < in.to; b++ {
		s := time.Now()
		evs := agg.Add(b, dets[b-in.from])
		tr.add(idAdd, ph, s, time.Now())
		closed = append(closed, evs...)
	}
	s := time.Now()
	closed = append(closed, agg.Flush()...)
	tr.add(idAdd, ph, s, time.Now())
	out.set("events.add_us_per_bin", tr.total("events.add", time.Microsecond)/bins, "us")
	out.set("events.closed", float64(len(closed)), "count")

	cl := classify.New(ds)
	for _, ev := range closed {
		s := time.Now()
		cl.Classify(ev)
		tr.add(idCls, ph, s, time.Now())
	}
	d := tr.durations("classify.event", time.Millisecond)
	out.set("classify.event_ms_p50", orZero(quantile(d, 0.5)), "ms")
	out.set("classify.event_ms_p99", orZero(quantile(d, 0.99)), "ms")
	out.set("classify.events", float64(len(d)), "count")
	if len(closed) != len(in.ref) {
		return fmt.Errorf("layer replay closed %d events, the reference characterized %d", len(closed), len(in.ref))
	}
	return nil
}

// replayStream submits the replayed bins to a fresh StreamDetector under
// the workload's configuration, timing each Submit (backpressure) and
// each bin's Submit → verdict delay. Open-loop workloads submit at their
// own bin cadence, so batching wait shows; closed-loop ones submit back
// to back.
func replayStream(in *inputs, tr *tracer, parent int32, out metrics) error {
	det, err := in.run.NewStreamDetector(netwide.DefaultDetectOptions(), in.w.stream)
	if err != nil {
		return err
	}
	ph := tr.open("layer.stream", parent)
	defer tr.close(ph)
	ds := in.run.Dataset()
	rows := [dataset.NumMeasures]*mat.Matrix{ds.Matrix(0), ds.Matrix(1), ds.Matrix(2)}
	n := in.to - in.from
	submitted := make([]time.Time, n)
	arrived := make([]time.Time, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for v := range det.Verdicts() {
			arrived[v.Bin-in.from] = time.Now()
		}
	}()
	idSub := tr.id("stream.submit")
	start := time.Now()
	var interval time.Duration
	if in.w.pps > 0 {
		interval = time.Second / time.Duration(in.w.pps)
	}
	for b := in.from; b < in.to; b++ {
		if interval > 0 {
			i0, _ := in.stream.binRange(b)
			if wait := time.Until(start.Add(time.Duration(i0) * interval)); wait > 0 {
				time.Sleep(wait)
			}
		}
		s := time.Now()
		submitted[b-in.from] = s
		err = det.Submit(b, rows[0].RowView(b), rows[1].RowView(b), rows[2].RowView(b))
		tr.add(idSub, ph, s, time.Now())
		if err != nil {
			break
		}
	}
	det.Close()
	<-done
	if werr := det.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("stream replay: %w", err)
	}
	idV := tr.id("stream.verdict")
	last := start
	for i := range submitted {
		tr.add(idV, ph, submitted[i], arrived[i])
		if arrived[i].After(last) {
			last = arrived[i]
		}
	}
	sub := tr.durations("stream.submit", time.Millisecond)
	ver := tr.durations("stream.verdict", time.Millisecond)
	out.set("stream.submit_wait_ms_p99", quantile(sub, 0.99), "ms")
	out.set("stream.verdict_ms_p50", quantile(ver, 0.5), "ms")
	out.set("stream.verdict_ms_p99", quantile(ver, 0.99), "ms")
	out.set("stream.bins_per_s", float64(n)/last.Sub(start).Seconds(), "1/s")
	return nil
}
