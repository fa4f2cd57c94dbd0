package main

import (
	"fmt"
	"strings"

	"netwide"
)

// matchResult compares a daemon's anomaly ledger with the reference as
// multisets keyed on class, measures, start and end bin, and OD set.
type matchResult struct {
	daemon, ref, matched int
}

// mismatch counts entries of either side without a partner.
func (m matchResult) mismatch() int { return m.daemon + m.ref - 2*m.matched }

func anomalyKey(a netwide.Anomaly) string {
	return fmt.Sprintf("%s|%s|%d|%d|%s", a.Class, a.Measures, a.StartBin, a.EndBin, strings.Join(a.ODs, ","))
}

func matchAnomalies(daemon, ref []netwide.Anomaly) matchResult {
	want := map[string]int{}
	for _, a := range ref {
		want[anomalyKey(a)]++
	}
	m := matchResult{daemon: len(daemon), ref: len(ref)}
	for _, a := range daemon {
		if k := anomalyKey(a); want[k] > 0 {
			want[k]--
			m.matched++
		}
	}
	return m
}

// delta is what one life's counters moved by.
type delta struct {
	records, late, wild, unroutable, lost uint64
	dups, bad                             uint64
}

func (l *life) delta() delta {
	a, b := l.after, l.before
	return delta{
		records:    a.Records - b.Records,
		late:       a.LateRecords - b.LateRecords,
		wild:       a.WildRecords - b.WildRecords,
		unroutable: a.Unroutable - b.Unroutable,
		lost:       a.LostRecords - b.LostRecords,
		dups:       a.Duplicates - b.Duplicates,
		bad:        a.BadPackets - b.BadPackets,
	}
}

// dropped counts the records of a life that reached no bin.
func (d delta) dropped() uint64 { return d.late + d.wild + d.unroutable + d.lost }

// check runs the correctness checks on one iteration and returns every
// failure, naming the counter that broke. Record conservation must hold
// exactly in every life: each record fed is accepted into a bin or counted
// by exactly one drop counter. The generator emits no malformed or
// repeated datagrams, so a bad or duplicate datagram is itself a failure
// (its records would be outside the conservation sum). Closed-loop
// workloads must close every replayed bin and reproduce the reference
// anomalies exactly, holding every replayed record once; the open loop must
// reproduce them whenever it dropped nothing.
func check(in *inputs, it *iteration) []string {
	var bad []string
	failf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	dropped := uint64(0)
	for i, l := range it.lives {
		d := l.delta()
		if d.dups != 0 {
			failf("life %d: duplicate_packets=%d", i, d.dups)
		}
		if d.bad != 0 {
			failf("life %d: bad_packets=%d", i, d.bad)
		}
		if got := d.records + d.dropped(); got != uint64(l.fed) {
			failf("life %d: conservation: fed %d records, records=%d + late=%d + wild=%d + unroutable=%d + lost=%d = %d",
				i, l.fed, d.records, d.late, d.wild, d.unroutable, d.lost, got)
		}
		if l.after.Err != "" {
			failf("life %d: err=%q", i, l.after.Err)
		}
		dropped += d.dropped()
	}
	fin := it.final()
	if in.w.checkpointEvery > 0 {
		if !fin.before.Restored || fin.before.RestoredBin != in.restoreAt {
			failf("restore: restored=%v restored_bin=%d, want bin %d", fin.before.Restored, fin.before.RestoredBin, in.restoreAt)
		}
	}
	mm := it.match.mismatch()
	if in.w.pps == 0 || dropped == 0 {
		if mm != 0 {
			failf("anomaly_mismatch=%d (daemon %d, reference %d, matched %d)", mm, it.match.daemon, it.match.ref, it.match.matched)
		}
	}
	if in.w.pps == 0 {
		if dropped != 0 {
			failf("closed loop dropped %d records", dropped)
		}
		if want := in.to - in.from; fin.after.BinsClosed != want {
			failf("bins_closed=%d, want %d", fin.after.BinsClosed, want)
		}
		if fin.after.Records != uint64(it.records) {
			failf("records=%d, the replayed bins carry %d", fin.after.Records, it.records)
		}
	}
	return bad
}

// folded counts the records the final life's closed bins hold, against
// the unique records of the replayed bins: the restart workload's final
// counters include what its snapshot carried.
func (it *iteration) folded() uint64 { return it.final().after.Records }
