package main

import (
	"repro/internal/critpath"
	"repro/internal/mpe"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics with their bounds; TestBenchmarkJSONMatchesTables keeps the two in
// step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the untraced run's metrics: what a user of the simulator
// sees for one batch job.
var endToEnd = []metricDef{
	{"host_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_events_per_s", "1/s", "higher"},
	{"virt_bandwidth_gbs", "GB/s", "higher"},
	{"virt_wall_s", "s", "lower"},
}

// allocLayers are the layers whose allocation volume is reported.
var allocLayers = []string{"sim", "mpi", "adio", "core", "extent", "pfs"}

// mpePhases are the paper's breakdown phases reported per layer; the
// non-hidden sync of Eq. 1 is reported as core.not_hidden_sync_s.
func mpePhases() []string {
	var out []string
	for _, ph := range mpe.BreakdownPhases {
		if ph != mpe.PhaseNotHiddenSync {
			out = append(out, string(ph))
		}
	}
	return out
}

// registryCounters maps per-layer metrics to the registry counter series
// they sum.
var registryCounters = []struct{ metric, series, unit string }{
	{"sim.events", "sim_events_total", "count"},
	{"sim.wakes", "sim_wakes_total", "count"},
	{"netsim.tx_bytes", "net_tx_bytes_total", "bytes"},
	{"netsim.msgs_dropped", "net_msgs_dropped_total", "count"},
	{"mpi.colls", "mpi_colls_total", "count"},
	{"mpi.p2p_msgs", "mpi_p2p_msgs_total", "count"},
	{"mpi.p2p_bytes", "mpi_p2p_bytes_total", "bytes"},
	{"mpi.retransmits", "mpi_retransmits_total", "count"},
	{"mpi.dedup_drops", "mpi_dedup_drops_total", "count"},
	{"adio.coll_rounds", "adio_coll_rounds_total", "count"},
	{"adio.exchange_bytes", "adio_exchange_bytes_total", "bytes"},
	{"adio.write_bytes", "adio_write_bytes_total", "bytes"},
	{"adio.failover_epochs", "adio_failover_epochs_total", "count"},
	{"core.cache_bytes", "cache_bytes_total", "bytes"},
	{"core.synced_bytes", "cache_synced_bytes_total", "bytes"},
	{"core.sync_reqs", "cache_sync_reqs_total", "count"},
	{"core.flush_waits", "cache_flush_waits_total", "count"},
	{"core.write_through", "cache_write_through_total", "count"},
	{"nvm.write_bytes", "nvm_write_bytes_total", "bytes"},
	{"pfs.target_bytes", "pfs_target_bytes_total", "bytes"},
	{"pfs.meta_ops", "pfs_meta_ops_total", "count"},
	{"pfs.rpc_timeouts", "pfs_rpc_timeouts_total", "count"},
}

// registryMeans maps per-layer metrics to the registry histogram series
// whose mean they report, in milliseconds.
var registryMeans = []struct{ metric, series string }{
	{"mpi.coll_wait_mean_ms", "mpi_coll_ns"},
	{"adio.round_mean_ms", "adio_round_ns"},
	{"core.sync_chunk_mean_ms", "cache_sync_chunk_ns"},
	{"nvm.op_mean_ms", "nvm_op_ns"},
	{"pfs.target_service_mean_ms", "pfs_target_ns"},
}

// perLayer lists the traced run's metrics: host cost per layer from the
// profiled job, virtual time per layer from the traced job, and the cost of
// tracing itself.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, l := range hostLayers {
		add("host."+l+"_cpu_s", "s", "lower")
	}
	for _, l := range allocLayers {
		add("alloc."+l+"_mb", "MB", "lower")
	}
	add("runtime.alloc_bytes_per_event", "bytes", "lower")
	add("runtime.allocs_per_event", "count", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("sim.host_ns_per_event", "ns", "lower")
	for _, c := range critpath.Categories {
		add("critpath."+string(c)+"_s", "s", "lower")
	}
	for _, ph := range mpePhases() {
		add("mpe."+ph+"_s", "s", "lower")
	}
	add("core.not_hidden_sync_s", "s", "lower")
	for _, c := range registryCounters {
		add(c.metric, c.unit, "lower")
	}
	for _, m := range registryMeans {
		add(m.metric, "ms", "lower")
	}
	add("mpi.delivery_ratio", "ratio", "higher")
	add("trace.overhead_ratio", "ratio", "lower")
	add("critpath.analyze_s", "s", "lower")
	return out
}
