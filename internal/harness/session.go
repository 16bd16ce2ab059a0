package harness

import (
	"fmt"

	"repro/internal/adio"
	"repro/internal/burst"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/mpe"
	"repro/internal/mpi"
	"repro/internal/mpiio"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Session is one assembled run: a fresh cluster with the spec's observers,
// case hooks, reliability layer, pre-run hook and fault schedule armed, and
// no rank started yet. Run, RunMulti and the chaos explorer all build their
// clusters through it.
type Session struct {
	Spec     Spec // as run: the burst-buffer case gets its default tier filled in
	Cluster  *Cluster
	Tracer   *trace.Tracer     // nil unless Spec asks for tracing
	Metrics  *metrics.Registry // nil unless Spec.Metrics
	Injector *fault.Injector   // nil unless Spec.FaultSpec is set
}

// NewSession builds spec's cluster and arms, in order: the event tracer and
// metrics registry, the case's data-path hooks, the reliability layer with
// its collective timeout, then Spec.PreRun, then Spec.FaultSpec. Only the
// Cluster, Case, observer, reliability, PreRun and FaultSpec fields are
// read; the workload fields are the caller's to run.
func NewSession(spec Spec) (*Session, error) {
	if spec.Case == BurstBuffer && spec.Cluster.BurstBuffer == nil {
		bb := burst.DefaultConfig()
		spec.Cluster.BurstBuffer = &bb
	}
	cl := NewCluster(spec.Cluster)
	s := &Session{Spec: spec, Cluster: cl}
	if spec.TraceEvents || spec.TracePath != "" || spec.CritPath || spec.TimelineBuckets > 0 {
		s.Tracer = trace.New()
		cl.Kernel.SetTracer(s.Tracer)
	}
	if spec.Metrics {
		s.Metrics = metrics.New()
		cl.Kernel.SetMetrics(s.Metrics)
	}
	switch spec.Case {
	case CacheTheoretical:
		cl.CoreEnv.SkipSync = true
	case BurstBuffer:
		cl.Env.Hooks = cl.BB.HooksFactory()
	}
	if spec.Resilient && !spec.Reliable {
		return nil, fmt.Errorf("harness: Spec.Resilient requires Spec.Reliable (failover needs collective timeouts)")
	}
	if spec.Reliable {
		cl.World.EnableReliable(mpi.ReliableConfig{})
		ct := spec.CollTimeout
		if ct == 0 {
			ct = DefaultCollTimeout
		}
		cl.World.SetCollTimeout(ct)
	}
	if spec.PreRun != nil {
		if err := spec.PreRun(cl); err != nil {
			return nil, err
		}
	}
	if spec.FaultSpec != "" {
		sched, err := fault.Parse(spec.FaultSpec)
		if err != nil {
			return nil, err
		}
		if s.Injector, err = cl.ArmFaults(sched); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// job is one application inside a session: a block of ranks running the
// paper's Figure 3 workflow on its own communicator. Per file k it fences
// with a barrier, opens the file collectively, runs the write phase T_c(k),
// fences again and computes for C(k+1); the close of file k is deferred to
// the start of write phase k+1, so its synchronisation hides behind the
// compute phase.
type job struct {
	name            string // file-name prefix: file k is "<name>.<k>"
	workload        workloads.Workload
	nfiles          int
	compute         sim.Time
	startDelay      sim.Time // compute before the first open (staggered arrival)
	includeLastSync bool     // no compute after the last file; its close wait counts
	info            mpi.Info

	logs       []*mpe.Log   // per job rank
	writeTimes []sim.Time   // per file: T_c(k), job rank 0's barrier-fenced view
	closeWaits [][]sim.Time // per file, per job rank: time spent in close
	err        error        // first error any rank surfaced, in virtual-time order

	// Folded in over every rank's closes.
	wall      sim.Time   // longest first-open-to-last-close span
	peakBuf   int64      // largest collective buffer
	failovers int64      // most resilient-write epochs beyond the first
	stats     core.Stats // cache stats, summed
	fallbacks int        // files that ran uncached
}

// prepare allocates j's per-rank state for the n ranks starting at world
// rank first, binding each rank's MPE log to the session's observers. It
// runs after NewSession, so the kernel has seen PreRun before any of it.
func (s *Session) prepare(j *job, first, n int) {
	j.logs = make([]*mpe.Log, n)
	for i := range j.logs {
		l := mpe.NewLog()
		if s.Spec.Trace {
			l.EnableTimeline()
		}
		if s.Tracer != nil {
			// Registers the rank tracks in ascending world-rank order.
			l.BindTracer(s.Tracer, s.Cluster.World.Rank(first+i).TraceTrack(s.Tracer))
		}
		if s.Metrics != nil {
			l.BindMetrics(s.Metrics, first+i)
		}
		j.logs[i] = l
	}
	j.writeTimes = make([]sim.Time, j.nfiles)
	j.closeWaits = make([][]sim.Time, j.nfiles)
	for k := range j.closeWaits {
		j.closeWaits[k] = make([]sim.Time, n)
	}
}

// fail records err if it is the job's first.
func (j *job) fail(err error) {
	if err != nil && j.err == nil {
		j.err = err
	}
}

// run is rank r's part of the job on cluster cl, at rank me of comm. A rank
// whose write or close fails keeps going, so it stays in the job's
// collective structure; only a failed open, which leaves nothing to write,
// ends its loop.
func (j *job) run(r *mpi.Rank, comm *mpi.Comm, me int, cl *Cluster) {
	if j.startDelay > 0 {
		r.Compute(j.startDelay)
	}
	start := r.Now()
	var prev *mpiio.File
	closePrev := func(k int) {
		if prev == nil {
			return
		}
		comm.Barrier(r)
		t0 := r.Now()
		j.fail(prev.Close())
		j.closeWaits[k][me] = r.Now() - t0
		j.account(prev.Handle())
		prev = nil
	}
	for k := 0; k < j.nfiles; k++ {
		// Figure 3 workflow: the previous file's close is deferred to the
		// beginning of this I/O phase.
		closePrev(k - 1)
		comm.Barrier(r)
		t0 := r.Now()
		f, err := cl.Env.OpenWithLog(r, comm, fmt.Sprintf("%s.%04d", j.name, k),
			mpiio.ModeCreate|mpiio.ModeWrOnly, j.info, j.logs[me])
		if err != nil {
			j.fail(err)
			break
		}
		j.fail(j.workload.WritePhase(r, f, cl.Cfg.Payload))
		comm.Barrier(r)
		if me == 0 {
			j.writeTimes[k] = r.Now() - t0
		}
		prev = f
		if k < j.nfiles-1 || !j.includeLastSync {
			// Compute phase C(k+1). With IncludeLastSync (IOR), the final
			// write has no following compute: C(N) = 0.
			r.Compute(j.compute)
		}
	}
	closePrev(j.nfiles - 1)
	j.wall = max(j.wall, r.Now()-start)
}

// account folds one closed file's statistics into the job's totals.
func (j *job) account(h *adio.File) {
	j.peakBuf = max(j.peakBuf, h.Stats.PeakBufBytes)
	j.failovers = max(j.failovers, h.Stats.FailoverEpochs)
	if h.Stats.CacheFallback {
		j.fallbacks++
	}
	if c, ok := h.InstalledHooks().(*core.Cache); ok && c != nil {
		j.stats = addStats(j.stats, c.Stats)
	}
}

// totalBytes is the job's payload over all its files (one log per rank).
func (j *job) totalBytes() int64 {
	return j.workload.FileBytes(len(j.logs)) * int64(j.nfiles)
}

// closeNoiseFloor is the close wait below which a close counts as fully
// hidden: close always pays a couple of metadata round trips, and only
// waits beyond that are non-hidden synchronisation.
const closeNoiseFloor = 10 * sim.Millisecond

// bandwidth computes Equation 2, the perceived bandwidth in GB/s: the job's
// bytes over the sum, per file, of the write phase T_c(k) and the non-hidden
// synchronisation max(0, T_s(k) - C(k+1)) (Equation 1), taken as the slowest
// rank's close wait. Waits under closeNoiseFloor count as zero, and the last
// file's wait counts only with includeLastSync (IOR, §IV-D; coll_perf and
// Flash-IO exclude it, §IV-B). A job that surfaced an error, or whose
// denominator is zero, reports zero bandwidth.
func (j *job) bandwidth() (phases []PhaseMetrics, gbs float64) {
	var denom sim.Time
	for k := 0; k < j.nfiles; k++ {
		var wait sim.Time
		for _, cw := range j.closeWaits[k] {
			wait = max(wait, cw)
		}
		if wait < closeNoiseFloor || (k == j.nfiles-1 && !j.includeLastSync) {
			wait = 0
		}
		phases = append(phases, PhaseMetrics{WriteTime: j.writeTimes[k], CloseWait: wait})
		denom += j.writeTimes[k] + wait
	}
	if denom > 0 && j.err == nil {
		gbs = float64(j.totalBytes()) / denom.Seconds() / 1e9
	}
	return phases, gbs
}
