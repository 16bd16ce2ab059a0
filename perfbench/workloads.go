package main

import (
	"fmt"

	"repro/internal/extent"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// workload is one named benchmark input: a function of the seed that builds
// the simulated batch job, and the facts the output oracle needs about it.
type workload struct {
	name        string
	why         string
	inputs      string
	defaultSeed int64
	// build returns the job's spec for a seed, and the nodes the job crashes
	// (their ranks' writes are not expected in the global file).
	build func(seed int64) (harness.Spec, []int)
}

// scaleSpec mirrors harness.RunScale's spec for a kilo-rank collective write
// of 4 × 16 KiB coll_perf runs per rank on one file. RunScale does not
// expose its spec or cluster, so the benchmark rebuilds it from the same
// public parts; TestScaleSpecMatchesRunScale holds the two together.
func scaleSpec(seed int64, nodes int) harness.Spec {
	return harness.Spec{
		Workload:     workloads.CollPerf{RunBytes: 16 << 10, RunsY: 2, RunsZ: 2},
		Cluster:      harness.Scaled(seed, nodes, 8),
		Case:         harness.CacheEnabled,
		Aggregators:  nodes,
		CBBuffer:     16 << 20,
		NFiles:       1,
		ComputeDelay: 100 * sim.Millisecond,
		StripeSize:   4 << 20,
		StripeCount:  4,
		SyncBuffer:   512 << 10,
	}
}

// failoverSpec combines RunScale's lossy and crash variants: every node
// drops 10% of its outbound messages under reliable delivery, and node 1
// crashes mid-write on the resilient path, which writes straight to the PFS.
func failoverSpec(seed int64, nodes int) (harness.Spec, []int) {
	const crashed = 1
	spec := scaleSpec(seed, nodes)
	spec.Case = harness.CacheDisabled
	spec.Reliable = true
	spec.Resilient = true
	spec.CollTimeout = 30 * sim.Second
	spec.PreRun = func(cl *harness.Cluster) error {
		for n := 0; n < nodes; n++ {
			cl.Fabric.Node(n).SetLossy(0.10)
		}
		cl.OnCrash = func(node int) { cl.World.KillNode(node) }
		cl.Kernel.After(80*sim.Millisecond, func() { cl.OnCrash(crashed) })
		return nil
	}
	return spec, []int{crashed}
}

// paperSpec is one cell of the paper's sweep on the full DEEP-ER profile
// (64 nodes × 8 ranks, 4 files, 30 s compute), cache enabled with
// flush_immediate, as harness.RunSweep builds it.
func paperSpec(seed int64, w workloads.Workload, lastSync bool) harness.Spec {
	spec := harness.DefaultSpec(w, harness.CacheEnabled, 64, 16<<20)
	spec.Cluster = harness.DeepER(seed)
	spec.IncludeLastSync = lastSync
	return spec
}

var benchWorkloads = []workload{
	{
		name:        "kilorank_clean",
		why:         "8192 ranks: per-rank cost of P-wide collectives and goroutine handoff dominates (mpi, scheduler, GC)",
		inputs:      "RunScale clean variant: 1024 nodes x 8 ranks, coll_perf 4 x 16 KiB runs per rank, cache enabled, 1 file",
		defaultSeed: 42,
		build:       func(seed int64) (harness.Spec, []int) { return scaleSpec(seed, 1024), nil },
	},
	{
		name:        "collperf_paper",
		why:         "Figure 4 headline cell: interleaved shuffle on the critical path, sync fully hidden (adio, extent)",
		inputs:      "Figure 4 cell 64_16mb: DEEP-ER 64 x 8 ranks, coll_perf 64 MiB per rank, 4 files, 30 s compute, cache enabled, flush_immediate",
		defaultSeed: 20160901,
		build: func(seed int64) (harness.Spec, []int) {
			return paperSpec(seed, workloads.DefaultCollPerf(), false), nil
		},
	},
	{
		name:        "ior_lastsync",
		why:         "Figure 9 contiguous pattern with last sync: core sync thread and pfs on the critical path, light shuffle",
		inputs:      "Figure 9 cell 64_16mb: DEEP-ER 64 x 8 ranks, IOR 8 MiB x 8 segments, 4 files, last sync included, cache enabled",
		defaultSeed: 20160901,
		build: func(seed int64) (harness.Spec, []int) {
			return paperSpec(seed, workloads.DefaultIOR(), true), nil
		},
	},
	{
		name:        "failover_lossy",
		why:         "only workload on reliable delivery, the resilient engine and communicator rebuild; writes straight to the PFS",
		inputs:      "2048 ranks (256 nodes x 8), coll_perf 4 x 16 KiB, 10% loss on every node, node 1 crashed at 80 ms, cache disabled, 30 s coll timeout",
		defaultSeed: 42,
		build:       func(seed int64) (harness.Spec, []int) { return failoverSpec(seed, 256) },
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// segments returns the file extents rank writes in one file of a job.
func segments(w workloads.Workload, rank, nranks int) ([]extent.Extent, error) {
	switch w := w.(type) {
	case workloads.CollPerf:
		return w.Segments(rank, nranks), nil
	case workloads.IOR:
		segs := make([]extent.Extent, w.Segments)
		for s := range segs {
			segs[s] = extent.Extent{Off: w.Offset(rank, nranks, s), Len: w.BlockBytes}
		}
		return segs, nil
	}
	return nil, fmt.Errorf("no segment oracle for workload %s", w.Name())
}

// oracleResult counts one job's rank-file writes against the global files.
type oracleResult struct {
	attempted  int64    // rank-file writes by ranks on surviving nodes
	failed     int64    // of those, writes with a segment missing from the file
	violations int64    // failed writes plus missing or wrongly sized files
	problems   []string // the first few violations, for the error report
}

func (o *oracleResult) flag(format string, args ...any) {
	o.violations++
	if len(o.problems) < 5 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// checkOutput is the benchmark's output oracle: every surviving rank's
// segments of every file must be covered by the global file's written
// extents, and without a crash every file must be exactly FileBytes long.
func checkOutput(cl *harness.Cluster, spec harness.Spec, dead []int) (oracleResult, error) {
	var o oracleResult
	nranks := cl.World.Size()
	perNode := cl.World.RanksPerNode()
	isDead := make(map[int]bool, len(dead))
	for _, n := range dead {
		isDead[n] = true
	}
	for k := 0; k < spec.NFiles; k++ {
		name := fmt.Sprintf("%s.%04d", spec.Workload.Name(), k)
		meta := cl.FS.Lookup(name)
		if meta == nil {
			o.flag("file %s missing", name)
		} else if want := spec.Workload.FileBytes(nranks); len(dead) == 0 && meta.Size() != want {
			o.flag("file %s is %d bytes, want %d", name, meta.Size(), want)
		}
		for rank := 0; rank < nranks; rank++ {
			if isDead[rank/perNode] {
				continue
			}
			o.attempted++
			if meta == nil {
				o.failed++
				continue
			}
			segs, err := segments(spec.Workload, rank, nranks)
			if err != nil {
				return o, err
			}
			written := meta.Store().Written()
			for _, seg := range segs {
				if !written.Covers(seg) {
					o.failed++
					o.flag("file %s: rank %d extent %v missing", name, rank, seg)
					break
				}
			}
		}
	}
	return o, nil
}
