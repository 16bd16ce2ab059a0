package harness

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mpe"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestBandwidthEquation2 pins the rules of the perceived-bandwidth
// calculation: two ranks writing two 1 GB files, so a 2 s denominator is
// exactly 1 GB/s.
func TestBandwidthEquation2(t *testing.T) {
	const ms, s = sim.Millisecond, sim.Second
	cases := []struct {
		name            string
		writeTimes      []sim.Time
		closeWaits      [][]sim.Time // per file, per rank
		includeLastSync bool
		err             error
		wantWaits       []sim.Time
		wantGBs         float64
	}{
		{
			name:       "close waits under 10ms count as zero",
			writeTimes: []sim.Time{s, s},
			closeWaits: [][]sim.Time{{9 * ms, 5 * ms}, {0, 0}},
			wantWaits:  []sim.Time{0, 0},
			wantGBs:    1,
		},
		{
			name:       "the slowest rank's wait counts from 10ms",
			writeTimes: []sim.Time{s, s},
			closeWaits: [][]sim.Time{{10 * ms, 250 * ms}, {0, 0}},
			wantWaits:  []sim.Time{250 * ms, 0},
			wantGBs:    2 / 2.25,
		},
		{
			name:       "the final close wait is excluded",
			writeTimes: []sim.Time{s, s},
			closeWaits: [][]sim.Time{{0, 0}, {0, 500 * ms}},
			wantWaits:  []sim.Time{0, 0},
			wantGBs:    1,
		},
		{
			name:            "IncludeLastSync counts the final close wait",
			writeTimes:      []sim.Time{s, s},
			closeWaits:      [][]sim.Time{{0, 0}, {0, 500 * ms}},
			includeLastSync: true,
			wantWaits:       []sim.Time{0, 500 * ms},
			wantGBs:         0.8,
		},
		{
			name:       "a zero denominator gives zero bandwidth",
			writeTimes: []sim.Time{0, 0},
			closeWaits: [][]sim.Time{{0, 0}, {0, 0}},
			wantWaits:  []sim.Time{0, 0},
			wantGBs:    0,
		},
		{
			name:       "an errored job reports zero bandwidth",
			writeTimes: []sim.Time{s, s},
			closeWaits: [][]sim.Time{{0, 0}, {0, 0}},
			err:        errors.New("sync failed"),
			wantWaits:  []sim.Time{0, 0},
			wantGBs:    0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			j := &job{
				workload:        workloads.IOR{BlockBytes: 500_000_000, Segments: 1},
				nfiles:          2,
				includeLastSync: c.includeLastSync,
				logs:            make([]*mpe.Log, 2),
				writeTimes:      c.writeTimes,
				closeWaits:      c.closeWaits,
				err:             c.err,
			}
			phases, gbs := j.bandwidth()
			if len(phases) != 2 {
				t.Fatalf("%d phases, want 2", len(phases))
			}
			for k, ph := range phases {
				if ph.WriteTime != c.writeTimes[k] || ph.CloseWait != c.wantWaits[k] {
					t.Errorf("file %d: phase %+v, want write %v wait %v", k, ph, c.writeTimes[k], c.wantWaits[k])
				}
			}
			if math.Abs(gbs-c.wantGBs) > 1e-12 {
				t.Errorf("bandwidth %v GB/s, want %v", gbs, c.wantGBs)
			}
		})
	}
}

// TestRunMultiTracesTenantPhases: tenant jobs run through the same per-rank
// loop as Run, so with TraceEvents every tenant rank's MPE phases land on
// its rank track.
func TestRunMultiTracesTenantPhases(t *testing.T) {
	res, err := RunMulti(MultiSpec{
		Cluster:     oneNodeCluster(6, 4, 1<<20),
		Jobs:        []JobSpec{tinyJob("jobA", 2), tinyJob("jobB", 2)},
		TraceEvents: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
	}
	tr := res.Trace
	spans := make(map[string]int)
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindSpan && ev.Cat == "phase" && tr.TrackGroup(ev.Track) == trace.GroupRanks {
			spans[tr.TrackName(ev.Track)]++
		}
	}
	for _, name := range []string{"rank 0", "rank 1", "rank 2", "rank 3"} {
		if spans[name] == 0 {
			t.Errorf("no MPE phase spans on track %q (got %v)", name, spans)
		}
	}
}
