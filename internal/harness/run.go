package harness

import (
	"fmt"
	"os"
	"strconv"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/critpath"
	"repro/internal/metrics"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Case selects one of the evaluation's three data paths.
type Case string

// The three cases of Figures 4, 7 and 9.
const (
	// CacheDisabled writes directly to the global file system
	// ("BW Cache Disabled").
	CacheDisabled Case = "disabled"
	// CacheEnabled writes to the local SSD cache and flushes it to the
	// global file system asynchronously ("BW Cache Enabled").
	CacheEnabled Case = "enabled"
	// CacheTheoretical writes to the cache without flushing — the
	// theoretical bandwidth with synchronisation cost fully hidden
	// ("TBW Cache Enable").
	CacheTheoretical Case = "theoretical"
	// BurstBuffer stages writes in a small tier of dedicated NVMe proxies
	// (the §V comparator architecture) instead of node-local SSDs. Not
	// part of the paper's evaluation; used by the comparison benches.
	BurstBuffer Case = "burstbuffer"
)

// Spec describes one experiment cell.
type Spec struct {
	Workload     workloads.Workload
	Cluster      ClusterConfig
	Case         Case
	Aggregators  int      // cb_nodes
	CBBuffer     int64    // cb_buffer_size in bytes
	NFiles       int      // files written per run (paper: 4 × 32 GB)
	ComputeDelay sim.Time // emulated compute phase (paper: 30 s)
	// IncludeLastSync adds the last write phase's non-hidden
	// synchronisation to the total time, as the IOR experiment does
	// (§IV-D); coll_perf and Flash-IO exclude it (§IV-B).
	IncludeLastSync bool
	StripeSize      int64  // file stripe size (paper: 4 MB)
	StripeCount     int    // file stripe count (paper: 4)
	SyncBuffer      int64  // ind_wr_buffer_size (paper: 512 KB)
	FlushFlag       string // e10_cache_flush_flag (default flush_immediate)
	Trace           bool   // record per-rank phase timelines (Result.Logs)
	// TraceEvents enables the event tracer (internal/trace): spans, instants
	// and counters across every simulated layer, exposed as Result.Trace.
	// Tracing records events only — it never perturbs virtual time, so every
	// measured number is identical with it on or off.
	TraceEvents bool
	// TracePath additionally writes the recorded events as Chrome
	// trace-event JSON (Perfetto-loadable) to this file after the run.
	// Setting it implies TraceEvents.
	TracePath string
	// CritPath runs the critical-path analyzer (internal/critpath) on the
	// recorded trace after the run, exposing Result.CritPath. It implies
	// TraceEvents; the analysis is post-hoc, so enabling it never perturbs
	// virtual time or the recorded trace.
	CritPath bool
	// TimelineBuckets, when > 0, builds the interval-sampled run timeline
	// (internal/critpath.BuildTimeline) with that many buckets, exposing
	// Result.Timeline. It implies TraceEvents and is likewise post-hoc.
	TimelineBuckets int
	// Metrics enables the metrics registry (internal/metrics): label-aware
	// counters, gauges and latency histograms across every simulated layer,
	// exposed as Result.Metrics. Like tracing, metrics record values only —
	// they never perturb virtual time, so every measured number is identical
	// with them on or off.
	Metrics bool
	// ExtraHints are merged into the MPI_Info last (e.g. cb_config_list
	// for placement experiments, e10_cache_read, ...).
	ExtraHints map[string]string
	// FaultSpec, when non-empty, is a fault.Parse schedule armed on the
	// cluster before the run (e.g. "degrade-target,target=1,factor=0.2,
	// from=2s,to=8s"). Fault injection is deterministic: the same spec and
	// seed reproduce the same run byte for byte.
	FaultSpec string
	// Reliable arms the reliable point-to-point delivery layer (acks,
	// timeout retransmit, receiver dedup) plus a collective timeout, so
	// the run tolerates lossy/duplicating links and a partitioned
	// collective surfaces a typed error instead of wedging. Without
	// faults, arming it leaves every measured virtual time unchanged.
	Reliable bool
	// CollTimeout overrides the collective timeout armed by Reliable
	// (zero keeps DefaultCollTimeout).
	CollTimeout sim.Time
	// Resilient selects the failover-capable collective write path
	// (e10_resilient_write): aggregator crash detection, deterministic
	// file-domain recompute over survivors, unacked-round replay.
	// Requires Reliable (the failover protocol needs collective
	// timeouts).
	Resilient bool
	// PreRun, when non-nil, runs against the freshly assembled cluster
	// after the reliability layer is armed but before faults are scheduled
	// and ranks start. It is the hook scale runs and tests use to wire
	// Cluster.OnCrash, arm per-node loss probabilities, or schedule
	// virtual-time callbacks. Everything it does must be deterministic.
	PreRun func(cl *Cluster) error
}

// DefaultCollTimeout is the collective timeout NewSession arms when
// Spec.Reliable is set and Spec.CollTimeout is zero. It bounds how long
// a collective waits for a crashed or partitioned peer before returning
// a typed timeout error.
const DefaultCollTimeout = 200 * sim.Millisecond

// DefaultSpec returns the paper's experiment parameters for a workload and
// cell, on the full DEEP-ER profile.
func DefaultSpec(w workloads.Workload, c Case, aggs int, cbBytes int64) Spec {
	return Spec{
		Workload:     w,
		Cluster:      DeepER(20160901),
		Case:         c,
		Aggregators:  aggs,
		CBBuffer:     cbBytes,
		NFiles:       4,
		ComputeDelay: 30 * sim.Second,
		StripeSize:   4 << 20,
		StripeCount:  4,
		SyncBuffer:   512 << 10,
	}
}

// PhaseMetrics captures one file's timings (the terms of Equation 1).
type PhaseMetrics struct {
	WriteTime sim.Time // T_c(k): collective write to cache or global FS
	CloseWait sim.Time // max(0, T_s(k) - C(k+1)): non-hidden sync at close
}

// Result is one experiment cell's outcome.
type Result struct {
	Spec       Spec
	TotalBytes int64
	Phases     []PhaseMetrics
	// BandwidthGBs is the perceived bandwidth of Equation 2 in GB/s.
	BandwidthGBs float64
	// Breakdown holds the max-over-ranks per-phase times summed over all
	// write phases (the stacked bars of Figures 5, 6, 8, 10).
	Breakdown map[mpe.Phase]sim.Time
	// WallTime is the total simulated run time.
	WallTime sim.Time
	// EventsDispatched is the number of kernel events the run consumed —
	// the numerator of the simulated-events-per-second throughput metric.
	EventsDispatched int64
	// PeakBufBytes is the largest collective buffer allocated on any rank
	// (memory pressure, the paper's point (d)).
	PeakBufBytes int64
	// FailoverEpochs is the largest number of resilient-write membership
	// epochs beyond the first observed on any rank (zero unless an
	// aggregator crashed mid-write on the resilient path).
	FailoverEpochs int64
	// Logs holds the per-rank MPE logs (with timelines when Spec.Trace is
	// set), for trace export via mpe.WriteChromeTrace.
	Logs []*mpe.Log
	// Trace is the event tracer with all recorded events, non-nil only when
	// Spec.TraceEvents or Spec.TracePath was set.
	Trace *trace.Tracer
	// TraceSummary is the plain-text trace digest (top spans, counter
	// high-water marks), empty when tracing was off.
	TraceSummary string
	// CritPath is the critical-path analysis of the recorded trace, non-nil
	// only when Spec.CritPath was set; CritPathReport is its markdown
	// rendering.
	CritPath       *critpath.Report
	CritPathReport string
	// Timeline is the interval-sampled run timeline, non-nil only when
	// Spec.TimelineBuckets > 0; TimelineReport is its markdown rendering.
	Timeline       *critpath.Timeline
	TimelineReport string
	// Metrics is the populated registry, non-nil only when Spec.Metrics was
	// set.
	Metrics *metrics.Registry
	// MetricsSummary is the registry's plain-text digest (sorted, integer
	// only, byte-deterministic per seed), empty when metrics were off.
	MetricsSummary string
	// Report is the post-run cluster resource summary (ClusterReport).
	Report string
	// FaultReport is the armed fault schedule's lifecycle rendering, empty
	// when no faults were injected.
	FaultReport string
}

// Label renders the cell name the paper uses on its x axes,
// "<aggregators>_<coll_bufsize>".
func (s Spec) Label() string {
	return fmt.Sprintf("%d_%dmb", s.Aggregators, s.CBBuffer>>20)
}

// hints builds the MPI_Info for the run.
func (s Spec) hints() mpi.Info {
	info := mpi.Info{
		adio.HintCBWrite:         adio.HintEnable,
		adio.HintCBNodes:         strconv.Itoa(s.Aggregators),
		adio.HintCBBufferSize:    strconv.FormatInt(s.CBBuffer, 10),
		adio.HintStripingUnit:    strconv.FormatInt(s.StripeSize, 10),
		adio.HintStripingFactor:  strconv.Itoa(s.StripeCount),
		adio.HintIndWrBufferSize: strconv.FormatInt(s.SyncBuffer, 10),
	}
	switch s.Case {
	case CacheDisabled, BurstBuffer:
		info[core.HintCache] = core.CacheDisable
	case CacheEnabled, CacheTheoretical:
		info[core.HintCache] = core.CacheEnable
		flush := s.FlushFlag
		if flush == "" {
			// Figure 3's workflow: synchronisation starts right after the
			// write so it can hide behind the next compute phase.
			flush = core.FlushImmediate
		}
		info[core.HintFlushFlag] = flush
		info[core.HintDiscardFlag] = "enable"
		info[core.HintCachePath] = "/scratch"
	}
	if s.Resilient {
		info[adio.HintResilientWrite] = adio.HintEnable
	}
	for k, v := range s.ExtraHints {
		info[k] = v
	}
	return info
}

// Run executes one experiment cell on a freshly built cluster and computes
// the perceived bandwidth per Equation 2. The cell is one job spanning the
// world, run on the world communicator.
func Run(spec Spec) (*Result, error) {
	s, err := NewSession(spec)
	if err != nil {
		return nil, err
	}
	spec = s.Spec
	cl := s.Cluster
	w := cl.World
	comm := w.Comm()
	j := &job{
		name:            spec.Workload.Name(),
		workload:        spec.Workload,
		nfiles:          spec.NFiles,
		compute:         spec.ComputeDelay,
		includeLastSync: spec.IncludeLastSync,
		info:            spec.hints(),
	}
	s.prepare(j, 0, w.Size())
	if err := w.Run(func(r *mpi.Rank) {
		j.run(r, comm, comm.RankOf(r), cl)
	}); err != nil {
		return nil, err
	}
	if j.err != nil {
		return nil, j.err
	}

	res := &Result{
		Spec:             spec,
		TotalBytes:       j.totalBytes(),
		Breakdown:        make(map[mpe.Phase]sim.Time),
		WallTime:         cl.Kernel.Now(),
		EventsDispatched: cl.Kernel.EventsDispatched(),
		Logs:             j.logs,
		PeakBufBytes:     j.peakBuf,
		FailoverEpochs:   j.failovers,
		Report:           ClusterReport(cl),
	}
	if s.Injector != nil {
		res.FaultReport = s.Injector.Report()
	}
	if tr := s.Tracer; tr != nil {
		res.Trace = tr
		res.TraceSummary = tr.Summary()
		if spec.TracePath != "" {
			if werr := writeTraceFile(tr, spec.TracePath); werr != nil {
				return nil, werr
			}
		}
	}
	if reg := s.Metrics; reg != nil {
		res.Metrics = reg
		res.MetricsSummary = reg.Text()
	}
	// Post-hoc analyses: both only read the already-recorded trace, so the
	// trace bytes and every measured virtual time are identical with or
	// without them.
	if spec.CritPath {
		res.CritPath = critpath.Analyze(s.Tracer, int64(res.WallTime))
		res.CritPathReport = res.CritPath.Markdown()
	}
	if spec.TimelineBuckets > 0 {
		res.Timeline = critpath.BuildTimeline(s.Tracer, int64(res.WallTime), spec.TimelineBuckets)
		res.TimelineReport = res.Timeline.Markdown()
	}
	res.Phases, res.BandwidthGBs = j.bandwidth()
	for _, ph := range mpe.BreakdownPhases {
		res.Breakdown[ph] = mpe.Aggregate(j.logs, ph).Max
	}
	return res, nil
}

// writeTraceFile exports the tracer as Chrome trace-event JSON at path.
func writeTraceFile(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("harness: trace export: %w", err)
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("harness: trace export: %w", err)
	}
	return f.Close()
}
