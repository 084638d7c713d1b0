package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// fragSubset is the part of Figure 10's grid the fragmented workload runs:
// four of the eight 1GB-sensitive workloads, each under THP, HawkEye and
// Trident. The full grid takes 50–70 s of wall time on a 2-core host;
// these four take 20–32 s there and still spend most of it building
// fragmented machines.
var fragSubset = map[string]bool{"SVM": true, "Btree": true, "Redis": true, "Canneal": true}

// figOutcome is one run of a figure workload.
type figOutcome struct {
	tables []namedTable
	wall   time.Duration
	// labels are the runner labels of the workload's batches, for
	// runner.ProgressFor.
	labels []string
	// cfgs are the distinct simulations the workload's tables are built
	// from, in first-submission order.
	cfgs []sim.Config
	// failures describes jobs that did not deliver; their rows are missing
	// and the output check counts them as failed.
	failures []string
}

type namedTable struct {
	name  string // report file stem, e.g. "figure9"
	table *stats.Table
}

// figureSettings are full-scale settings as cmd/experiments uses them, plus
// the benchmark's hooks: Obs marks the first dispatch (it is called once per
// experiment just before its jobs start) and never observes anything.
func figureSettings(e *env) experiments.Settings {
	return experiments.Settings{
		Seed:        e.seed,
		Parallelism: e.workers,
		Ctx:         e.ctx,
		Checkpoint:  filepath.Join(e.work, "checkpoint"),
		Failures:    &runner.FailureLog{},
		Obs: func(string) *obs.Observer {
			e.markDispatch()
			return nil
		},
		Log: e.jobs.logger(),
	}
}

// fullScale returns the simulation config an experiment driver builds for
// one grid cell at full scale.
func fullScale(seed uint64, w *workload.Spec, p sim.PolicyKind) sim.Config {
	return sim.Config{Workload: w, Policy: p, MemGB: sim.DefaultMemGB, Scale: sim.DefaultScale,
		Accesses: sim.DefaultAccesses, Seed: seed}
}

// runClean regenerates Figures 1, 9 and 12 through their experiment
// drivers: native page sizes over all twelve workloads, native THP,
// HawkEye and Trident over the eight 1GB-sensitive ones, and the same
// three virtualized. No machine is fragmented.
func runClean(e *env) *figOutcome {
	s := figureSettings(e)
	drivers := []struct {
		name string
		run  func(experiments.Settings) *stats.Table
	}{
		{"figure1", experiments.Figure1},
		{"figure9", experiments.Figure9},
		{"figure12", experiments.Figure12},
	}
	out := &figOutcome{}
	start := time.Now()
	root := e.rec.begin("clean", layerRun, 0, "")
	for _, d := range drivers {
		sp := e.rec.begin("experiments."+d.name, layerExperiments, root, "")
		t := d.run(s)
		e.rec.end(sp)
		out.tables = append(out.tables, namedTable{d.name, t})
		out.labels = append(out.labels, d.name)
	}
	e.rec.end(root)
	out.wall = time.Since(start)
	out.cfgs = cleanConfigs(e.seed)
	for _, f := range s.Failures.All() {
		out.failures = append(out.failures, fmt.Sprintf("%s %s: %s", f.Experiment, f.Name, f.Reason()))
	}
	return out
}

// cleanConfigs lists the simulations Figures 1, 9 and 12 run, built as
// their drivers build them, so that a replay through the memo cache finds
// each result.
func cleanConfigs(seed uint64) []sim.Config {
	var cfgs []sim.Config
	for _, w := range workload.All() {
		for _, p := range []sim.PolicyKind{sim.Policy4K, sim.PolicyTHP, sim.PolicyHugetlbfs2M, sim.PolicyHugetlbfs1G} {
			cfgs = append(cfgs, fullScale(seed, w, p))
		}
	}
	for _, virt := range []bool{false, true} {
		for _, w := range workload.Sensitive() {
			for _, p := range []sim.PolicyKind{sim.PolicyTHP, sim.PolicyHawkEye, sim.PolicyTrident} {
				cfg := fullScale(seed, w, p)
				if virt {
					cfg.Virtualized = true
					cfg.HostPolicy = p
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return distinct(cfgs)
}

func distinct(cfgs []sim.Config) []sim.Config {
	seen := map[string]bool{}
	var out []sim.Config
	for _, c := range cfgs {
		fp := runner.Fingerprint(c)
		if !seen[fp] {
			seen[fp] = true
			out = append(out, c)
		}
	}
	return out
}

// runFragmented regenerates the fragSubset rows of Figure 10: fragmented
// native THP, HawkEye and Trident. The Figure 10 driver has no workload
// filter, so the grid is submitted to the runner here with the driver's
// configurations and row arithmetic; the output check holds the rows to
// the committed report byte for byte.
func runFragmented(e *env) *figOutcome {
	t := stats.NewTable("Figure 10: performance under fragmentation",
		"workload", "config", "perf_norm", "walk_frac_norm", "mapped_1g_gb", "mapped_2m_gb")
	gb := func(b uint64) float64 { return float64(b) / float64(units.GiB) }
	out := &figOutcome{labels: []string{"figure10"}}
	var jobs []runner.Job
	for _, w := range workload.Sensitive() {
		if !fragSubset[w.Name] {
			continue
		}
		var base *sim.Result
		for _, p := range []sim.PolicyKind{sim.PolicyTHP, sim.PolicyHawkEye, sim.PolicyTrident} {
			cfg := fullScale(e.seed, w, p)
			cfg.Fragment = true
			out.cfgs = append(out.cfgs, cfg)
			jobs = append(jobs, runner.Sim(cfg, func(res *sim.Result) {
				if p == sim.PolicyTHP {
					base = res
				}
				t.AddRow(w.Name, res.Policy,
					ratio(base.Perf.CyclesPerAccess, res.Perf.CyclesPerAccess),
					ratio(res.Perf.WalkCycleFraction, base.Perf.WalkCycleFraction),
					gb(res.MappedFinal[units.Size1G]),
					gb(res.MappedFinal[units.Size2M]))
			}))
		}
	}
	start := time.Now()
	root := e.rec.begin("fragmented", layerRun, 0, "")
	sp := e.rec.begin("figure10 subset", layerExperiments, root, "")
	e.markDispatch()
	rep := runner.Execute(jobs, runner.Options{
		Parallelism: e.workers,
		Label:       "figure10",
		Context:     e.ctx,
		Checkpoint:  filepath.Join(e.work, "checkpoint"),
		Log:         e.jobs.logger(),
	})
	e.rec.end(sp)
	e.rec.end(root)
	out.wall = time.Since(start)
	for _, f := range rep.Failures {
		out.failures = append(out.failures, fmt.Sprintf("%s %s: %s", f.Experiment, f.Name, f.Reason()))
	}
	out.tables = []namedTable{{"figure10", t}}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
