package harness

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/adio"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// JobSpec describes one tenant job in a multi-tenant run: an independent
// application with its own rank set, workload, collective-buffering
// parameters and NVM-cache budget.
type JobSpec struct {
	Name         string // tenant identity (e10_tenant); must be unique
	Ranks        int    // world ranks assigned to this job
	Workload     workloads.Workload
	NFiles       int      // files written (0 = 1)
	ComputeDelay sim.Time // emulated compute phase between files
	StartDelay   sim.Time // delay before the job's first open (staggered arrival)
	Aggregators  int      // cb_nodes within the job's communicator
	CBBuffer     int64    // cb_buffer_size in bytes
	SyncBuffer   int64    // ind_wr_buffer_size (0 = adio default)
	FlushFlag    string   // e10_cache_flush_flag (default flush_immediate)
	CacheMode    string   // e10_cache (default enable)

	// NVM budget (per device). Zero values mean unlimited / no reservation.
	QuotaBytes int64  // e10_tenant_quota_bytes
	QuotaFiles int    // e10_tenant_quota_files
	Reserve    int64  // e10_tenant_reserve (admission floor)
	Admit      string // e10_tenant_admit: reject (default) | queue
	Policy     string // e10_tenant_policy: block (default) | writethrough

	// ExtraHints are merged last into the job's MPI_Info.
	ExtraHints map[string]string
}

// MultiSpec describes one multi-tenant service-mode run: several jobs
// sharing one cluster's PFS and per-node NVM devices.
type MultiSpec struct {
	Cluster     ClusterConfig
	Jobs        []JobSpec
	Metrics     bool // enable the metrics registry (Result.Metrics)
	TraceEvents bool // enable the event tracer (Result.Trace)
}

// JobResult is one tenant's outcome.
type JobResult struct {
	Name         string
	Ranks        int
	TotalBytes   int64
	BandwidthGBs float64    // Equation-2 perceived bandwidth for this job
	WallTime     sim.Time   // first open to last close, job-local
	Stats        core.Stats // cache stats summed over the job's ranks
	// Fallbacks counts file sessions that ran uncached (admission rejected
	// or no usable cache) — the job still completes through the PFS.
	Fallbacks int
	// Err is the job's first error, nil when the job completed. Capacity
	// pressure alone must never set it.
	Err error
}

// MultiResult is a multi-tenant run's outcome.
type MultiResult struct {
	Spec     MultiSpec
	Jobs     []JobResult
	WallTime sim.Time
	Trace    *trace.Tracer     // non-nil when Spec.TraceEvents
	Metrics  *metrics.Registry // non-nil when Spec.Metrics
	Report   string            // post-run cluster resource summary
}

// hints builds one job's MPI_Info, including the tenant budget hints.
func (j JobSpec) hints() mpi.Info {
	aggs := j.Aggregators
	if aggs <= 0 {
		aggs = 1
	}
	cb := j.CBBuffer
	if cb <= 0 {
		cb = 4 << 20
	}
	info := mpi.Info{
		adio.HintCBWrite:      adio.HintEnable,
		adio.HintCBNodes:      strconv.Itoa(aggs),
		adio.HintCBBufferSize: strconv.FormatInt(cb, 10),
	}
	if j.SyncBuffer > 0 {
		info[adio.HintIndWrBufferSize] = strconv.FormatInt(j.SyncBuffer, 10)
	}
	mode := j.CacheMode
	if mode == "" {
		mode = core.CacheEnable
	}
	info[core.HintCache] = mode
	if mode != core.CacheDisable {
		flush := j.FlushFlag
		if flush == "" {
			flush = core.FlushImmediate
		}
		info[core.HintFlushFlag] = flush
		info[core.HintDiscardFlag] = "enable"
		info[core.HintCachePath] = "/scratch"
		info[core.HintTenant] = j.Name
		if j.QuotaBytes > 0 {
			info[core.HintTenantQuotaBytes] = strconv.FormatInt(j.QuotaBytes, 10)
		}
		if j.QuotaFiles > 0 {
			info[core.HintTenantQuotaFiles] = strconv.Itoa(j.QuotaFiles)
		}
		if j.Reserve > 0 {
			info[core.HintTenantReserve] = strconv.FormatInt(j.Reserve, 10)
		}
		if j.Admit != "" {
			info[core.HintTenantAdmit] = j.Admit
		}
		if j.Policy != "" {
			info[core.HintTenantPolicy] = j.Policy
		}
	}
	for k, v := range j.ExtraHints {
		info[k] = v
	}
	return info
}

// RunMulti executes several tenant jobs concurrently on one freshly built
// cluster. World ranks are assigned to jobs in contiguous blocks, in job
// order; ranks beyond the jobs' total idle. Each job runs Run's per-rank
// workflow over its own Split communicator, so the jobs interleave on the
// shared fabric, PFS and NVM devices but never synchronize with each other.
// Tenant jobs have no IncludeLastSync: a compute phase follows every file,
// and the last close wait is excluded from the job's bandwidth.
func RunMulti(spec MultiSpec) (*MultiResult, error) {
	if len(spec.Jobs) == 0 {
		return nil, errors.New("harness: RunMulti needs at least one job")
	}
	total := 0
	seen := make(map[string]bool)
	for _, j := range spec.Jobs {
		if j.Name == "" {
			return nil, errors.New("harness: JobSpec.Name must be set")
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("harness: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
		if j.Ranks <= 0 {
			return nil, fmt.Errorf("harness: job %q needs ranks", j.Name)
		}
		if j.Workload == nil {
			return nil, fmt.Errorf("harness: job %q needs a workload", j.Name)
		}
		total += j.Ranks
	}
	s, err := NewSession(Spec{Cluster: spec.Cluster, Metrics: spec.Metrics, TraceEvents: spec.TraceEvents})
	if err != nil {
		return nil, err
	}
	cl := s.Cluster
	w := cl.World
	if total > w.Size() {
		return nil, fmt.Errorf("harness: jobs need %d ranks, world has %d", total, w.Size())
	}
	jobs := make([]*job, len(spec.Jobs))
	// jobOf maps a world rank to its job (or -1: idle).
	jobOf := make([]int, w.Size())
	first := 0
	for i, js := range spec.Jobs {
		jobs[i] = &job{
			name:       js.Name,
			workload:   js.Workload,
			nfiles:     max(js.NFiles, 1),
			compute:    js.ComputeDelay,
			startDelay: js.StartDelay,
			info:       js.hints(),
		}
		s.prepare(jobs[i], first, js.Ranks)
		for k := 0; k < js.Ranks; k++ {
			jobOf[first+k] = i
		}
		first += js.Ranks
	}
	for i := first; i < w.Size(); i++ {
		jobOf[i] = -1
	}

	comm := w.Comm()
	if err := w.Run(func(r *mpi.Rank) {
		me := comm.RankOf(r)
		// Split is collective over the world: every rank participates,
		// idle ranks (color < 0) get a nil communicator and retire.
		jcomm := comm.Split(r, jobOf[me], me)
		if jcomm == nil {
			return
		}
		jobs[jobOf[me]].run(r, jcomm, jcomm.RankOf(r), cl)
	}); err != nil {
		return nil, err
	}

	res := &MultiResult{Spec: spec, WallTime: cl.Kernel.Now(), Trace: s.Tracer, Metrics: s.Metrics}
	res.Report = ClusterReport(cl)
	for _, j := range jobs {
		jr := JobResult{
			Name: j.name, Ranks: len(j.logs), TotalBytes: j.totalBytes(),
			WallTime: j.wall, Stats: j.stats, Fallbacks: j.fallbacks, Err: j.err,
		}
		_, jr.BandwidthGBs = j.bandwidth()
		res.Jobs = append(res.Jobs, jr)
	}
	return res, nil
}

// addStats sums two cache-stat records field by field (booleans OR).
func addStats(a, b core.Stats) core.Stats {
	a.CacheWrites += b.CacheWrites
	a.CacheBytes += b.CacheBytes
	a.SyncedBytes += b.SyncedBytes
	a.SyncRequests += b.SyncRequests
	a.WriteThroughs += b.WriteThroughs
	a.FlushWaits += b.FlushWaits
	a.FlushWaitTime += b.FlushWaitTime
	a.CoherentLockHeld += b.CoherentLockHeld
	a.CacheReads += b.CacheReads
	a.Backoffs += b.Backoffs
	a.SyncRetries += b.SyncRetries
	a.SyncFailures += b.SyncFailures
	a.RecoveredExtents += b.RecoveredExtents
	a.RecoveredBytes += b.RecoveredBytes
	a.CacheDegraded = a.CacheDegraded || b.CacheDegraded
	a.QuotaStalls += b.QuotaStalls
	a.QuotaStallTime += b.QuotaStallTime
	a.QuotaWriteThroughs += b.QuotaWriteThroughs
	a.EvictedBytes += b.EvictedBytes
	a.AdmitRejects += b.AdmitRejects
	return a
}
