package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"

	"repro/internal/extent"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// The tests run the benchmark's logic on reduced jobs (4 nodes × 8 ranks)
// so they finish in seconds.

func smallScale() workload {
	return workload{name: "small_scale", build: func(seed int64) (harness.Spec, []int) { return scaleSpec(seed, 4), nil }}
}

func smallFailover() workload {
	return workload{name: "small_failover", build: func(seed int64) (harness.Spec, []int) { return failoverSpec(seed, 4) }}
}

// runSmall runs spec and returns the assembled cluster for the oracle.
func runSmall(t *testing.T, spec harness.Spec) *harness.Cluster {
	t.Helper()
	var cl *harness.Cluster
	pre := spec.PreRun
	spec.PreRun = func(c *harness.Cluster) error {
		cl = c
		if pre != nil {
			return pre(c)
		}
		return nil
	}
	if _, err := harness.Run(spec); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/extent.(*Set).Add", "repro/internal/adio.WriteStridedColl"}, "extent"},
		{[]string{"repro/internal/mpi.(*World).Run.func1", "repro/internal/sim.(*Kernel).Run"}, "mpi"},
		{[]string{"repro/internal/mpe.(*Log).Begin", "repro/internal/mpi.(*Comm).Barrier"}, "other"},
		{[]string{"repro/internal/harness.Run", "main.runJob"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{[]string{"runtime._GC"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime.sched"},
		{nil, "runtime.sched"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf writer for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var q []byte
	for _, v := range vs {
		q = binary.AppendUvarint(q, v)
	}
	return p.bytes(num, q)
}

// syntheticProfile has two sample types and three samples: one in adio with
// extent inlined into it at the leaf (packed fields), one in the collector
// and one in the scheduler (unpacked fields).
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/extent.(*Set).Add", "repro/internal/adio.WriteStridedColl",
		"runtime.gcBgMarkWorker", "runtime.schedule"}
	p := &pb{}
	p.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b)
	p.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b)
	p.bytes(2, (&pb{}).packed(1, 1, 2, 3).packed(2, 2, 20).b)
	p.bytes(2, (&pb{}).varint(1, 4).varint(2, 3).varint(2, 30).b)
	p.bytes(2, (&pb{}).varint(1, 5).varint(2, 1).varint(2, 10).b)
	// Location 1 holds adio with extent inlined: innermost line first.
	p.bytes(4, (&pb{}).varint(1, 1).bytes(4, (&pb{}).varint(1, 1).b).bytes(4, (&pb{}).varint(1, 2).b).b)
	p.bytes(4, (&pb{}).varint(1, 2).bytes(4, (&pb{}).varint(1, 2).b).b)
	p.bytes(4, (&pb{}).varint(1, 3).b) // no line info
	p.bytes(4, (&pb{}).varint(1, 4).bytes(4, (&pb{}).varint(1, 3).b).b)
	p.bytes(4, (&pb{}).varint(1, 5).bytes(4, (&pb{}).varint(1, 4).b).b)
	for id, s := range []uint64{5, 6, 7, 8} {
		p.bytes(5, (&pb{}).varint(1, uint64(id+1)).varint(2, s).b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRollupSyntheticProfile(t *testing.T) {
	gz := syntheticProfile(t)
	got, err := rollupBytes(gz, "cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"extent": 20, "runtime.gc": 30, "runtime.sched": 10}
	for _, l := range hostLayers {
		if got[l] != want[l] {
			t.Errorf("%s = %d, want %d", l, got[l], want[l])
		}
	}
	if _, err := rollupBytes(gz, "alloc_space"); err == nil {
		t.Error("rollup of a missing sample type succeeded")
	}
	if _, err := parseProfile(gz[:len(gz)/2]); err == nil {
		t.Error("truncated profile parsed")
	}
}

var sink []extent.Extent

// TestRollupRealHeapProfile rolls up a heap profile written by the runtime,
// so the decoder is held to the format runtime/pprof emits.
func TestRollupRealHeapProfile(t *testing.T) {
	var s extent.Set
	for i := 0; i < 1<<17; i++ {
		s.Add(extent.Extent{Off: int64(2 * i), Len: 1})
	}
	sink = s.Extents()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	got, err := rollupBytes(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if got["extent"] < 1<<20 {
		t.Errorf("extent allocated %d bytes in the profile, want at least 1 MiB", got["extent"])
	}
}

func TestOracleTripsOnSabotagedStore(t *testing.T) {
	spec := scaleSpec(42, 4)
	cl := runSmall(t, spec)
	o, err := checkOutput(cl, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.attempted != 32 || o.failed != 0 || o.violations != 0 {
		t.Fatalf("clean run: %+v", o)
	}
	// Punch one rank's extent out of the global file.
	segs, _ := segments(spec.Workload, 5, 32)
	cl.FS.Lookup("coll_perf.0000").Store().Written().Remove(segs[1])
	o, err = checkOutput(cl, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 1 || o.violations != 1 {
		t.Fatalf("sabotaged store: %+v, want one failed write", o)
	}
}

func TestOracleContiguousPattern(t *testing.T) {
	spec := harness.DefaultSpec(workloads.IOR{BlockBytes: 1 << 20, Segments: 2}, harness.CacheEnabled, 4, 4<<20)
	spec.Cluster = harness.Scaled(7, 4, 2)
	spec.NFiles = 2
	spec.IncludeLastSync = true
	cl := runSmall(t, spec)
	o, err := checkOutput(cl, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.attempted != 16 || o.failed != 0 || o.violations != 0 {
		t.Fatalf("IOR run: %+v", o)
	}
	// A file longer than the workload writes is a violation even with every
	// segment present.
	spec.Workload = workloads.IOR{BlockBytes: 1 << 20, Segments: 1}
	if o, _ = checkOutput(cl, spec, nil); o.violations == 0 {
		t.Fatal("size mismatch not flagged")
	}
}

func TestScaleSpecMatchesRunScale(t *testing.T) {
	rep, err := harness.RunScale(harness.ScaleConfig{Variant: harness.ScaleClean, Ranks: 64, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Run(scaleSpec(42, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsDispatched != rep.Events || int64(res.WallTime) != rep.WallTimeNs {
		t.Fatalf("scaleSpec: %d events, %d ns; RunScale: %d events, %d ns",
			res.EventsDispatched, int64(res.WallTime), rep.Events, rep.WallTimeNs)
	}
}

// TestJobModes runs every job mode in process and assembles the per-layer
// result from them, as one --trace 1 run does.
func TestJobModes(t *testing.T) {
	for _, w := range []workload{smallScale(), smallFailover()} {
		t.Run(w.name, func(t *testing.T) {
			setup, err := runJob(w, 3, modeSetup)
			if err != nil || setup.SetupNs <= 0 {
				t.Fatalf("setup: %v %+v", err, setup)
			}
			b := newBench(w, 3)
			var reps []*jobReport
			for _, mode := range []string{modeJob, modeProfile, modeTraced} {
				rep, err := runJob(w, 3, mode)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				b.check(rep)
				reps = append(reps, rep)
			}
			if !b.res.Correct || b.res.Failed != 0 || b.res.Attempted == 0 {
				t.Fatalf("result %+v, want correct with no failed writes", b.res)
			}
			b.setLayers(reps[1], reps[2])
			var got, want []string
			for n := range b.res.Metrics {
				got = append(got, n)
			}
			for _, m := range perLayer() {
				want = append(want, m.name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Fatalf("per-layer metrics\n got %v\nwant %v", got, want)
			}
			if reps[2].Layer["sim.events"] != float64(reps[0].Virtual.Events) {
				t.Errorf("registry sim.events %v, kernel %d", reps[2].Layer["sim.events"], reps[0].Virtual.Events)
			}
		})
	}
}

// TestCheckFlagsVirtualDrift holds the repeatability rule: a job whose
// virtual outputs differ from the first job's makes the run incorrect.
func TestCheckFlagsVirtualDrift(t *testing.T) {
	b := newBench(smallScale(), 1)
	b.check(&jobReport{Attempted: 1, Virtual: virtual{Events: 10, WallNs: 5}})
	b.check(&jobReport{Attempted: 1, Virtual: virtual{Events: 10, WallNs: 5}})
	if !b.res.Correct {
		t.Fatal("identical jobs flagged")
	}
	b.check(&jobReport{Attempted: 1, Virtual: virtual{Events: 11, WallNs: 5}})
	if b.res.Correct {
		t.Fatal("drifting job not flagged")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q malformed or repeated", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: unit %q malformed", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
	for _, w := range benchWorkloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q malformed", w.name)
		}
		seen[w.name] = true
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the benchmark
// contract reads, in step with the metrics and workloads this program emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jm                         `json:"end_to_end"`
		PerLayer  []jm                         `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(benchWorkloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(benchWorkloads))
	}
	for i, w := range benchWorkloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, here %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json %+v, here %+v", kind, i, g, m)
			}
			if bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, *g.Bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer(), false)
	var setup float64
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range bj.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s bound %v", m.Name, *m.Bound, setup)
		}
	}
}
