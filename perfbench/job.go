package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/critpath"
	"repro/internal/harness"
	"repro/internal/mpe"
)

// Job modes. Each runs in a fresh child process, so no job inherits another
// job's heap, goroutine stacks or GC pacing.
const (
	modeSetup   = "setup"   // assemble the cluster and stop before the ranks start
	modeJob     = "job"     // one untraced job: the end-to-end host and virtual numbers
	modeProfile = "profile" // one untraced job under the CPU and heap profilers
	modeTraced  = "traced"  // one job with event tracing, metrics and the critical path
)

// errSetupOnly aborts harness.Run from the PreRun hook in setup mode.
var errSetupOnly = errors.New("setup measured")

// virtual holds a job's deterministic outputs: a seed must reproduce every
// one of them exactly, traced or not.
type virtual struct {
	Events          int64   `json:"events"`
	WallNs          int64   `json:"wall_ns"`
	BandwidthGBs    float64 `json:"bandwidth_gbs"`
	NotHiddenSyncNs int64   `json:"not_hidden_sync_ns"`
}

// jobReport is one child's measurement, sent to the parent as JSON.
type jobReport struct {
	Mode    string  `json:"mode"`
	SetupNs int64   `json:"setup_ns"` // wall time from the call into harness.Run to PreRun
	HostNs  int64   `json:"host_ns"`  // wall time of harness.Run
	Virtual virtual `json:"virtual"`

	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Violations int64    `json:"violations"`
	Problems   []string `json:"problems,omitempty"`

	// Profile mode: per-layer CPU and allocation roll-ups and the
	// runtime.MemStats deltas over the job.
	CPUNs      map[string]int64 `json:"cpu_ns,omitempty"`
	AllocBytes map[string]int64 `json:"alloc_bytes,omitempty"`
	TotalAlloc uint64           `json:"total_alloc,omitempty"`
	Mallocs    uint64           `json:"mallocs,omitempty"`
	NumGC      uint32           `json:"num_gc,omitempty"`

	// Traced mode: the per-layer virtual numbers.
	Layer     map[string]float64 `json:"layer,omitempty"`
	AnalyzeNs int64              `json:"analyze_ns,omitempty"`
}

// runJob runs one job of w in this process and checks its output.
func runJob(w workload, seed int64, mode string) (*jobReport, error) {
	switch mode {
	case modeSetup, modeJob, modeProfile, modeTraced:
	default:
		return nil, fmt.Errorf("unknown job mode %q", mode)
	}
	spec, dead := w.build(seed)
	var (
		cl      *harness.Cluster
		t0      time.Time
		setupNs int64
	)
	pre := spec.PreRun
	spec.PreRun = func(c *harness.Cluster) error {
		setupNs = time.Since(t0).Nanoseconds()
		cl = c
		if mode == modeSetup {
			return errSetupOnly
		}
		if pre != nil {
			return pre(c)
		}
		return nil
	}
	if mode == modeTraced {
		spec.TraceEvents = true
		spec.Metrics = true
	}

	var cpu bytes.Buffer
	var ms0, ms1 runtime.MemStats
	if mode == modeProfile {
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	res, err := harness.Run(spec)
	hostNs := time.Since(t0).Nanoseconds()
	if mode == modeProfile {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
	}
	rep := &jobReport{Mode: mode, SetupNs: setupNs, HostNs: hostNs}
	if mode == modeSetup {
		if !errors.Is(err, errSetupOnly) {
			return nil, fmt.Errorf("setup: %v", err)
		}
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s job: %w", w.name, err)
	}
	rep.Virtual = virtual{
		Events:       res.EventsDispatched,
		WallNs:       int64(res.WallTime),
		BandwidthGBs: res.BandwidthGBs,
	}
	for _, ph := range res.Phases {
		rep.Virtual.NotHiddenSyncNs += int64(ph.CloseWait)
	}

	o, err := checkOutput(cl, spec, dead)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed, rep.Violations, rep.Problems = o.attempted, o.failed, o.violations, o.problems

	switch mode {
	case modeProfile:
		rep.TotalAlloc = ms1.TotalAlloc - ms0.TotalAlloc
		rep.Mallocs = ms1.Mallocs - ms0.Mallocs
		rep.NumGC = ms1.NumGC - ms0.NumGC
		if rep.CPUNs, err = rollupBytes(cpu.Bytes(), "cpu"); err != nil {
			return nil, err
		}
		// The heap profile is as of the last completed collection.
		runtime.GC()
		var heap bytes.Buffer
		if err := pprof.Lookup("heap").WriteTo(&heap, 0); err != nil {
			return nil, err
		}
		if rep.AllocBytes, err = rollupBytes(heap.Bytes(), "alloc_space"); err != nil {
			return nil, err
		}
	case modeTraced:
		t1 := time.Now()
		cp := critpath.Analyze(res.Trace, int64(res.WallTime))
		rep.AnalyzeNs = time.Since(t1).Nanoseconds()
		if cp.AttributedNs != int64(res.WallTime) {
			rep.Violations++
			rep.Problems = append(rep.Problems, fmt.Sprintf(
				"critical path attributes %d ns of %d ns wall time", cp.AttributedNs, int64(res.WallTime)))
		}
		rep.Layer = tracedLayers(res, cp)
	}
	return rep, nil
}

func rollupBytes(gz []byte, sampleType string) (map[string]int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	return rollup(p, sampleType)
}

// tracedLayers reads the virtual per-layer metrics of a traced job: the
// critical-path shares, the paper's phase breakdown, and the registry.
func tracedLayers(res *harness.Result, cp *critpath.Report) map[string]float64 {
	out := map[string]float64{}
	for _, c := range critpath.Categories {
		out["critpath."+string(c)+"_s"] = 0
	}
	for _, sh := range cp.Shares {
		out["critpath."+string(sh.Category)+"_s"] = float64(sh.Ns) / 1e9
	}
	for _, ph := range mpePhases() {
		out["mpe."+ph+"_s"] = res.Breakdown[mpe.Phase(ph)].Seconds()
	}
	var notHidden float64
	for _, ph := range res.Phases {
		notHidden += ph.CloseWait.Seconds()
	}
	out["core.not_hidden_sync_s"] = notHidden

	reg := res.Metrics
	count := func(name string) float64 { return float64(reg.SumCounters(name)) }
	meanMs := func(name string) float64 {
		n, sum := reg.SumHistograms(name)
		if n == 0 {
			return 0
		}
		return float64(sum) / float64(n) / 1e6
	}
	for _, c := range registryCounters {
		out[c.metric] = count(c.series)
	}
	for _, m := range registryMeans {
		out[m.metric] = meanMs(m.series)
	}
	msgs, retrans := count("mpi_p2p_msgs_total"), count("mpi_retransmits_total")
	if msgs+retrans > 0 {
		out["mpi.delivery_ratio"] = msgs / (msgs + retrans)
	}
	return out
}
