package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
)

// mixPerKind is how many sweeps of each kind one sweep mix makes: the
// sweep-mix workload's, and the one that follows the figure jobs of the
// figure workloads so that they report every end-to-end metric.
const mixPerKind = 60

// measureFigures runs a figure workload and checks its tables. Untraced,
// it then has a child process run a sweep mix for the sweep latencies: a
// fresh process, so the figure jobs' heap does not change them, and
// outside wall_s and cpu_s. Traced, it collects the per-layer metrics of
// the layers the figure jobs load.
func measureFigures(e *env) (*outcome, error) {
	gc0, cpu0 := readGC(), cpuTime()
	var fo *figOutcome
	if e.workload == "clean" {
		fo = runClean(e)
	} else {
		fo = runFragmented(e)
	}
	out := &outcome{wall: fo.wall, cpu: cpuTime() - cpu0}
	gc1 := readGC()
	out.problems = append(out.problems, fo.failures...)
	for _, t := range fo.tables {
		rows, bad, problem := checkTable(e, t.name, t.table.CSV())
		out.attempted += rows
		out.failed += bad
		if problem != "" {
			out.problems = append(out.problems, problem)
		}
	}
	if e.rec == nil {
		s, err := childSweeps(e, mixPerKind)
		if err != nil {
			return nil, err
		}
		out.merge(s)
		return out, nil
	}
	out.layers = append(out.layers, gcLayer(gc0, gc1)...)

	results, err := replayResults(fo.cfgs)
	if err != nil {
		return nil, err
	}
	virt := 0.0
	if p, ok := runner.ProgressFor("figure12"); ok && e.workload == "clean" {
		virt = p.PhaseWallMs["measure"] / 1e3
	}
	out.layers = append(out.layers, simLayers(results, phaseSums(fo.labels), virt)...)
	fl, err := fragmentLayer(fo.cfgs)
	if err != nil {
		return nil, err
	}
	out.layers = append(out.layers, fl...)
	out.layers = append(out.layers, runnerLayer(e.jobs.records(), fo.wall, e.workers)...)
	files, _ := os.ReadDir(filepath.Join(e.work, "checkpoint"))
	out.layers = append(out.layers, metric{"runner.journal_writes", float64(len(files)), "count"})
	return out, nil
}

// measureMix runs the sweep mix and reports the per-kind latencies.
func measureMix(e *env) (*outcome, error) {
	mo, err := runMix(e, mixPerKind)
	if err != nil {
		return nil, err
	}
	out := &outcome{wall: mo.wall, cpu: mo.cpu}
	s, err := summarizeMix(mo)
	if err != nil {
		return nil, err
	}
	out.merge(s)
	if e.rec == nil {
		return out, nil
	}

	var labels []string
	for _, p := range runner.Progress() {
		if strings.HasPrefix(p.Label, "sweep/") {
			labels = append(labels, p.Label)
		}
	}
	var cfgs []sim.Config
	for _, o := range mo.obs {
		if o.Kind == kindNew {
			cfgs = append(cfgs, gridConfigs(o.Grid)...)
		}
	}
	results, err := replayResults(cfgs)
	if err != nil {
		return nil, err
	}
	out.layers = append(out.layers, gcLayer(mo.gc0, mo.gc1)...)
	out.layers = append(out.layers, simLayers(results, phaseSums(labels), 0)...)
	out.layers = append(out.layers, runnerLayer(e.jobs.records(), mo.wall, e.workers)...)
	out.layers = append(out.layers, metric{"runner.journal_writes", float64(mo.journal), "count"})
	out.layers = append(out.layers, mixLayers(mo)...)
	return out, nil
}

// mixSummary is what a sweep mix adds to a run's result: its sweeps as
// operations, and the sweep latencies.
type mixSummary struct {
	Attempted, Failed int
	Problems          []string
	Metrics           []metric
}

// summarizeMix counts the sweeps and computes the sweep latencies over
// every sweep that completed, whether or not its output passed the check:
// one median per kind, and the highest percentile over all sweeps with
// minBeyond sweeps beyond it.
func summarizeMix(mo *mixOutcome) (mixSummary, error) {
	s := mixSummary{Problems: mo.problems}
	var kinds []string
	var lat []float64
	for _, o := range mo.obs {
		s.Attempted++
		if o.Err != nil || o.Wrong != "" {
			s.Failed++
		}
		if o.Err != nil {
			continue
		}
		kinds = append(kinds, o.Kind)
		lat = append(lat, o.latencyMs())
	}
	p50 := kindMedians(kinds, lat)
	t, ok := tailPercentile(lat)
	if !ok || len(p50) != len(mixKinds) {
		return s, fmt.Errorf("%d completed sweeps are too few for the sweep latencies", len(lat))
	}
	fmt.Fprintf(os.Stderr, "perfbench: sweep_tail_ms is p%.1f of %d sweeps\n", t.Pct, t.N)
	s.Metrics = []metric{
		{"new_sweep_p50_ms", p50[kindNew], "ms"},
		{"stored_sweep_p50_ms", p50[kindStored], "ms"},
		{"cached_sweep_p50_ms", p50[kindCached], "ms"},
		{"sweep_tail_ms", t.Value, "ms"},
	}
	return s, nil
}

func (out *outcome) merge(s mixSummary) {
	out.attempted += s.Attempted
	out.failed += s.Failed
	out.problems = append(out.problems, s.Problems...)
	out.endToEnd = append(out.endToEnd, s.Metrics...)
}

// childSweeps runs a sweep mix of the given size in a fresh copy of this
// benchmark and returns its summary.
func childSweeps(e *env, perKind int) (mixSummary, error) {
	var s mixSummary
	self, err := os.Executable()
	if err != nil {
		return s, err
	}
	cmd := exec.Command(self, "-sweeps", fmt.Sprint(perKind), "-workload", e.workload,
		"-seed", fmt.Sprint(e.seed), "-root", e.root, "-build", e.build)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return s, fmt.Errorf("sweep mix: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("sweep mix printed %q: %w", b, err)
	}
	return s, nil
}

// mixLayers are the store and service metrics of a traced sweep-mix run.
func mixLayers(mo *mixOutcome) []metric {
	t, _ := tailPercentile(mo.latencies())
	var submit, report []float64
	queueByKind := map[string][]float64{}
	execByKind := map[string][]float64{}
	events := 0
	for _, o := range mo.obs {
		if o.Err != nil {
			continue
		}
		submit = append(submit, ms(o.Ack.Sub(o.Submit)))
		queueByKind[o.Kind] = append(queueByKind[o.Kind], ms(o.Started.Sub(o.Ack)))
		execByKind[o.Kind] = append(execByKind[o.Kind], ms(o.Done.Sub(o.Started)))
		report = append(report, ms(o.Received.Sub(o.Streamed)))
		events += o.Events
	}
	st := mo.storeStats
	hit := 0.0
	if st.Gets > 0 {
		hit = float64(st.Hits) / float64(st.Gets)
	}
	return []metric{
		{"store.gets", float64(st.Gets), "count"},
		{"store.puts", float64(st.Puts), "count"},
		{"store.hit_frac", hit, "frac"},
		{"store.get_ms", zeroNaN(median(mo.timed.getMs)), "ms"},
		{"store.put_ms", zeroNaN(median(mo.timed.putMs)), "ms"},
		{"service.submit_ms", median(submit), "ms"},
		{"service.queue_new_ms", median(queueByKind[kindNew]), "ms"},
		{"service.queue_stored_ms", median(queueByKind[kindStored]), "ms"},
		{"service.queue_cached_ms", median(queueByKind[kindCached]), "ms"},
		{"service.exec_new_ms", median(execByKind[kindNew]), "ms"},
		{"service.exec_stored_ms", median(execByKind[kindStored]), "ms"},
		{"service.exec_cached_ms", median(execByKind[kindCached]), "ms"},
		{"service.report_ms", median(report), "ms"},
		{"service.events", float64(events), "count"},
		{"sweep.count", float64(t.N), "count"},
		{"sweep.tail_pct", t.Pct, "%"},
	}
}

// finishTrace turns the run's job records into runner spans, links store
// spans to the job that made them, writes the trace file, validates it
// with cmd/tracecheck and returns the trace's own metrics.
func finishTrace(e *env, wall time.Duration) ([]metric, []string, error) {
	spans := e.rec.snapshot()
	parentOf := map[string]int{} // runner label or sweep id -> span
	for _, s := range spans {
		switch {
		case s.Layer == layerExperiments:
			parentOf[strings.TrimPrefix(strings.Fields(s.Name)[0], "experiments.")] = s.ID
		case s.Layer == layerService && strings.HasPrefix(s.Name, "sweep ") && s.Sweep != "":
			parentOf["sweep/"+s.Sweep] = s.ID
		}
	}
	for _, j := range e.jobs.records() {
		e.rec.add(span{Parent: parentOf[j.Experiment], Name: j.Name, Layer: layerRunner, Sweep: j.Sweep,
			Start: j.Start, End: j.Start.Add(time.Duration(j.WallMs * 1e6))})
	}
	spans = e.rec.snapshot()
	linkStoreSpans(spans)
	self := selfTimes(spans)
	path := filepath.Join(e.build, "traces", fmt.Sprintf("%s-seed%d.json", e.workload, e.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	if err := writeTrace(path, e.rec.origin, spans, self); err != nil {
		return nil, nil, err
	}
	var problems []string
	check := exec.Command(filepath.Join(e.build, "tracecheck"), path)
	if b, err := check.CombinedOutput(); err != nil {
		problems = append(problems, fmt.Sprintf("tracecheck %s: %v: %s", path, err, strings.TrimSpace(string(b))))
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return []metric{
		{"trace.wall_s", wall.Seconds(), "s"},
		{"trace.spans", float64(len(spans)), "count"},
		{"trace.recorder_ms", ms(e.rec.cost), "ms"},
		{"self.bench_s", self[layerRun].Seconds(), "s"},
		{"self.experiments_s", self[layerExperiments].Seconds(), "s"},
		{"self.service_s", self[layerService].Seconds(), "s"},
		{"self.runner_s", self[layerRunner].Seconds(), "s"},
		{"self.store_s", self[layerStore].Seconds(), "s"},
	}, problems, nil
}

// linkStoreSpans makes each store call a child of the shortest job span
// that contains it; the store is called from inside jobs, but the driver
// wrapper cannot see which.
func linkStoreSpans(spans []span) {
	var jobs []span
	for _, s := range spans {
		if s.Layer == layerRunner {
			jobs = append(jobs, s)
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Start.Before(jobs[j].Start) })
	for i := range spans {
		s := &spans[i]
		if s.Layer != layerStore {
			continue
		}
		best := -1
		for k, j := range jobs {
			if j.Start.After(s.Start) {
				break
			}
			if !j.End.Before(s.End) && (best < 0 || j.End.Sub(j.Start) < jobs[best].End.Sub(jobs[best].Start)) {
				best = k
			}
		}
		if best >= 0 {
			s.Parent, s.Sweep = jobs[best].ID, jobs[best].Sweep
		}
	}
}
