package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/compact"
	"repro/internal/fragment"
	"repro/internal/kernel"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/units"
)

// metric is one named measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// phaseSums returns the summed per-phase wall time (seconds) of the
// executed jobs of the given runner labels, from runner.ProgressFor.
func phaseSums(labels []string) map[string]float64 {
	out := map[string]float64{}
	for _, l := range labels {
		p, ok := runner.ProgressFor(l)
		if !ok {
			continue
		}
		for phase, msec := range p.PhaseWallMs {
			out[phase] += msec / 1e3
		}
	}
	return out
}

// replayResults fetches the results of cfgs from the memo cache, where the
// measured run left them. It fails if any had to be simulated again, which
// would mean cfgs do not match what the run submitted.
func replayResults(cfgs []sim.Config) ([]*sim.Result, error) {
	before := runner.Cache()
	results := make([]*sim.Result, len(cfgs))
	jobs := make([]runner.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = runner.Sim(cfg, func(r *sim.Result) { results[i] = r })
	}
	rep := runner.Execute(jobs, runner.Options{Parallelism: 1})
	if !rep.OK() {
		return nil, fmt.Errorf("replaying results: %s", rep.Failures[0].Reason())
	}
	if after := runner.Cache(); after.Misses != before.Misses {
		return nil, fmt.Errorf("replaying results re-simulated %d configurations", after.Misses-before.Misses)
	}
	return results, nil
}

// simLayers sums the public statistics of the workload's simulations and
// divides the phase sums by the work they did.
func simLayers(results []*sim.Result, phases map[string]float64, virtMeasure float64) []metric {
	var refs, l2, walks, walkMem, faults, f4k, f2m, f1g, failed1g, promoted, moved, copied uint64
	for _, r := range results {
		refs += r.Trans.Accesses
		l2 += r.Trans.L2Hits
		walks += r.Trans.Walks
		walkMem += r.Trans.WalkMemAccesses
		f4k += r.Fault.Faults[units.Size4K]
		f2m += r.Fault.Faults[units.Size2M]
		f1g += r.Fault.Faults[units.Size1G]
		failed1g += r.Fault.Failed1G
		if r.Promote != nil {
			for _, n := range r.Promote.Promoted {
				promoted += n
			}
		}
		for _, cs := range []*compact.Stats{r.SmartCompact, r.NormalCompact, r.Normal1GCompact} {
			if cs != nil {
				moved += cs.PagesMoved
				copied += cs.BytesCopied
			}
		}
	}
	faults = f4k + f2m + f1g
	per := func(sec float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return sec * 1e9 / float64(n)
	}
	return []metric{
		{"sim.build_s", phases["build"], "s"},
		{"sim.populate_s", phases["populate"], "s"},
		{"sim.daemons_s", phases["daemons"], "s"},
		{"sim.measure_s", phases["measure"], "s"},
		{"mmu.refs", float64(refs), "count"},
		{"tlb.l2_hits", float64(l2), "count"},
		{"pagetable.walks", float64(walks), "count"},
		{"pagetable.walk_mem_accesses", float64(walkMem), "count"},
		{"mmu.ns_per_ref", per(phases["measure"], refs), "ns"},
		{"virt.measure_s", virtMeasure, "s"},
		{"fault.faults_4k", float64(f4k), "count"},
		{"fault.faults_2m", float64(f2m), "count"},
		{"fault.faults_1g", float64(f1g), "count"},
		{"fault.failed_1g", float64(failed1g), "count"},
		{"fault.ns_per_fault", per(phases["populate"], faults), "ns"},
		{"promote.promotions", float64(promoted), "count"},
		{"compact.pages_moved", float64(moved), "count"},
		{"compact.bytes_copied_gb", float64(copied) / float64(units.GiB), "GB"},
	}
}

// fragInput is everything fragment.Apply's outcome depends on when the
// simulator builds a fragmented machine.
type fragInput struct {
	memBytes uint64
	maxOrder int
	cfg      fragment.Config
}

// fragInputOf mirrors how the simulator prepares a fragmented native
// machine for cfg: the buddy flavour its policy needs, and the
// fragmentation pattern its workload's footprint sets.
func fragInputOf(cfg sim.Config) fragInput {
	memBytes := cfg.MemGB * units.Page1G
	footprint := uint64(float64(cfg.Workload.Footprint) * cfg.Scale)
	order := units.StockMaxOrder
	switch cfg.Policy {
	case sim.PolicyTrident, sim.PolicyTrident1GOnly, sim.PolicyTridentNC, sim.PolicyHugetlbfs1G:
		order = units.TridentMaxOrder
	}
	return fragInput{memBytes: memBytes, maxOrder: order, cfg: fragment.Config{
		Seed:           cfg.Seed + 2,
		UnmovableBytes: memBytes / 128,
		FreeBytes:      footprint + footprint/2 + units.Page1G,
	}}
}

// fragmentLayer fragments one fresh machine per distinct input of the
// workload's fragmented simulations, timing kernel.New and fragment.Apply.
func fragmentLayer(cfgs []sim.Config) ([]metric, error) {
	var inputs []fragInput
	for _, c := range cfgs {
		if c.Fragment && !c.Virtualized {
			inputs = append(inputs, fragInputOf(c))
		}
	}
	var newMs, applyMs []float64
	seen := map[fragInput]bool{}
	for _, in := range inputs {
		if seen[in] {
			continue
		}
		seen[in] = true
		t := time.Now()
		k := kernel.New(in.memBytes, in.maxOrder)
		t1 := time.Now()
		if _, err := fragment.Apply(k, in.cfg); err != nil {
			return nil, fmt.Errorf("fragmenting %+v: %w", in, err)
		}
		applyMs = append(applyMs, ms(time.Since(t1)))
		newMs = append(newMs, ms(t1.Sub(t)))
	}
	return []metric{
		{"kernel.new_ms", zeroNaN(median(newMs)), "ms"},
		{"fragment.apply_ms", zeroNaN(median(applyMs)), "ms"},
		{"fragment.applies", float64(len(inputs)), "count"},
		{"fragment.inputs", float64(len(seen)), "count"},
		{"fragment.repeat_frac", repeatFrac(inputs), "frac"},
	}, nil
}

// zeroNaN reports an empty median as 0: a layer that did no work.
func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// gcCounters reads the runtime's cumulative allocation and GC counters.
type gcCounters struct{ allocBytes, gcCPU, cycles float64 }

func readGC() gcCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return gcCounters{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

func gcLayer(before, after gcCounters) []metric {
	return []metric{
		{"gc.alloc_gb", (after.allocBytes - before.allocBytes) / float64(units.GiB), "GB"},
		{"gc.cpu_s", after.gcCPU - before.gcCPU, "s"},
		{"gc.cycles", after.cycles - before.cycles, "count"},
	}
}

// runnerLayer summarizes the job records of a traced run: the wall time of
// executed jobs, how busy the workers were, and which memo tier served
// each job.
func runnerLayer(jobs []jobRecord, wall time.Duration, workers int) []metric {
	var walls []float64
	var busy float64
	count := map[string]float64{}
	for _, j := range jobs {
		if j.Source == "executed" {
			walls = append(walls, j.WallMs)
		}
		busy += j.WallMs
		count[j.Source]++
	}
	return []metric{
		{"runner.job_p50_ms", zeroNaN(median(walls)), "ms"},
		{"runner.busy_frac", busy / (ms(wall) * float64(workers)), "frac"},
		{"runner.executed", count["executed"], "count"},
		{"runner.cache_hits", count["cache"], "count"},
		{"runner.store_hits", count["store"], "count"},
	}
}
