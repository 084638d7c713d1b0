package main

// endToEndMetrics and perLayerMetrics are the metrics BENCHMARK.json
// declares, in the order the benchmark prints them. A test holds the two
// in agreement.
var endToEndMetrics = []string{
	"wall_s", "cpu_s", "peak_rss_mb", "setup_s", "success_frac",
	"new_sweep_p50_ms", "stored_sweep_p50_ms", "cached_sweep_p50_ms", "sweep_tail_ms",
}

var perLayerMetrics = []metric{
	{"sim.build_s", 0, "s"},
	{"sim.populate_s", 0, "s"},
	{"sim.daemons_s", 0, "s"},
	{"sim.measure_s", 0, "s"},
	{"kernel.new_ms", 0, "ms"},
	{"fragment.apply_ms", 0, "ms"},
	{"fragment.applies", 0, "count"},
	{"fragment.inputs", 0, "count"},
	{"fragment.repeat_frac", 0, "frac"},
	{"mmu.refs", 0, "count"},
	{"tlb.l2_hits", 0, "count"},
	{"pagetable.walks", 0, "count"},
	{"pagetable.walk_mem_accesses", 0, "count"},
	{"mmu.ns_per_ref", 0, "ns"},
	{"virt.measure_s", 0, "s"},
	{"fault.faults_4k", 0, "count"},
	{"fault.faults_2m", 0, "count"},
	{"fault.faults_1g", 0, "count"},
	{"fault.failed_1g", 0, "count"},
	{"fault.ns_per_fault", 0, "ns"},
	{"promote.promotions", 0, "count"},
	{"compact.pages_moved", 0, "count"},
	{"compact.bytes_copied_gb", 0, "GB"},
	{"runner.job_p50_ms", 0, "ms"},
	{"runner.busy_frac", 0, "frac"},
	{"runner.executed", 0, "count"},
	{"runner.cache_hits", 0, "count"},
	{"runner.store_hits", 0, "count"},
	{"runner.journal_writes", 0, "count"},
	{"store.gets", 0, "count"},
	{"store.puts", 0, "count"},
	{"store.hit_frac", 0, "frac"},
	{"store.get_ms", 0, "ms"},
	{"store.put_ms", 0, "ms"},
	{"service.submit_ms", 0, "ms"},
	{"service.queue_new_ms", 0, "ms"},
	{"service.queue_stored_ms", 0, "ms"},
	{"service.queue_cached_ms", 0, "ms"},
	{"service.exec_new_ms", 0, "ms"},
	{"service.exec_stored_ms", 0, "ms"},
	{"service.exec_cached_ms", 0, "ms"},
	{"service.report_ms", 0, "ms"},
	{"service.events", 0, "count"},
	{"sweep.count", 0, "count"},
	{"sweep.tail_pct", 0, "%"},
	{"gc.alloc_gb", 0, "GB"},
	{"gc.cpu_s", 0, "s"},
	{"gc.cycles", 0, "count"},
	{"trace.wall_s", 0, "s"},
	{"trace.spans", 0, "count"},
	{"trace.recorder_ms", 0, "ms"},
	{"self.bench_s", 0, "s"},
	{"self.experiments_s", 0, "s"},
	{"self.service_s", 0, "s"},
	{"self.runner_s", 0, "s"},
	{"self.store_s", 0, "s"},
}

// completeLayers returns every declared per-layer metric, taking the values
// a run measured; a layer the workload does not load, or a median over no
// samples, reports 0.
func completeLayers(measured []metric) []metric {
	got := map[string]float64{}
	for _, m := range measured {
		got[m.Name] = m.Value
	}
	out := make([]metric, len(perLayerMetrics))
	for i, m := range perLayerMetrics {
		m.Value = zeroNaN(got[m.Name])
		out[i] = m
	}
	return out
}
