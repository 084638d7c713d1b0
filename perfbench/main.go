// Command perfbench is the repository's benchmark. It runs one workload,
// checks the program's output, and prints every metric with its unit; the
// last line of standard output is the result as one JSON object.
//
//	bash perfbench/run.sh --workload clean --seed 1 --seconds 20 --trace 0
//
// Workloads (README.md in this directory says why each exists):
//
//	clean       Figures 1, 9 and 12 at full scale: translation-bound
//	fragmented  part of Figure 10's grid at full scale: machine-construction-bound
//	sweep-mix   two closed-loop HTTP clients against the sweep service
//
// With -trace 0 it reports the end-to-end metrics, with -trace 1 the
// per-layer metrics of a separate traced run, whose spans it writes as a
// trace-event file and validates with cmd/tracecheck. Result sets are
// appended to <build>/results/<workload>.jsonl with a host fingerprint;
// -compare reports the difference between two of them, and refuses when the
// hosts differ.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/sim"
)

// setupProbes is how many extra processes set up the workload and exit, so
// that setup_s is a median rather than one process start.
const setupProbes = 10

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// env is one benchmark process's view of its run.
type env struct {
	workload    string
	root, build string // checkout root and build directory
	work        string // scratch directory of this run, removed at exit
	seed        uint64
	workers     int
	t0          time.Time // when the process was launched
	rec         *recorder // nil unless traced
	jobs        *jobLog   // nil unless traced

	// ctx is the context of the workload's jobs; a setup probe cancels it
	// at the first dispatch.
	ctx    context.Context
	cancel context.CancelFunc
	probe  bool

	dispatchOnce sync.Once
	dispatched   time.Time
}

// markDispatch records the moment the first job is about to be dispatched,
// which ends set-up.
func (e *env) markDispatch() {
	e.dispatchOnce.Do(func() {
		e.dispatched = time.Now()
		if e.probe {
			e.cancel()
		}
	})
}

func run() error {
	var (
		workload = flag.String("workload", "", "clean, fragmented or sweep-mix")
		seed     = flag.Uint64("seed", 1, "input seed (0 means 1)")
		seconds  = flag.Int("seconds", 20, "run length the workloads are sized for; a run that takes over twice as long is reported on standard error")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		t0ns     = flag.Int64("t0", 0, "launch time in ns since the epoch, which a set-up probe measures from; 0 means now")
		root     = flag.String("root", ".", "repository root")
		build    = flag.String("build", ".bench_build", "build directory (binaries, scratch, traces, results)")
		probe    = flag.Bool("probe-setup", false, "set up the workload, print the set-up time and exit (used by the benchmark itself)")
		pin      = flag.Bool("pin", false, "compute the output digests pins.json holds and print them as JSON")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: <base.jsonl> <new.jsonl>")
		sweeps   = flag.Int("sweeps", 0, "run a sweep mix with this many sweeps of each kind, print its summary as JSON and exit (used by the benchmark itself)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareResults(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seed == 0 {
		*seed = sim.DefaultSeed
	}
	e := &env{workload: *workload, root: *root, build: *build, seed: *seed,
		workers: runtime.NumCPU(), t0: time.Now(), probe: *probe}
	if *t0ns != 0 {
		e.t0 = time.Unix(0, *t0ns)
	}
	if e.workers > 2 {
		e.workers = 2 // the load comes from one process with at most 2 workers
	}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	defer e.cancel()
	if _, err := os.Stat(filepath.Join(e.root, "go.mod")); err != nil {
		return fmt.Errorf("-root %s is not the repository root: %w", e.root, err)
	}
	e.work = filepath.Join(e.build, "run", fmt.Sprintf("%s-%d", e.workload, os.Getpid()))
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(e.work)

	if *sweeps > 0 {
		mo, err := runMix(e, *sweeps)
		if err != nil {
			return err
		}
		s, err := summarizeMix(mo)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(s)
	}
	if *pin {
		return pinDigests(e, os.Stdout)
	}
	if *probe {
		d, err := probeSetup(e)
		if err != nil {
			return err
		}
		fmt.Println(d.Seconds())
		return nil
	}
	if !knownWorkload(e.workload) {
		return fmt.Errorf("unknown -workload %q (clean, fragmented, sweep-mix)", e.workload)
	}
	if *trace == 1 {
		e.rec = newRecorder()
		e.jobs = newJobLog()
	}

	// Half the set-up probes run before the measured run and half after, so
	// that their median spans more than one moment of the host's load.
	pre, err := runProbes(e, setupProbes/2)
	if err != nil {
		return err
	}
	res, err := measure(e)
	if err != nil {
		return err
	}
	post, err := runProbes(e, setupProbes-setupProbes/2)
	if err != nil {
		return err
	}
	res.setupSamples = append(pre, post...)
	if limit := 2 * time.Duration(*seconds) * time.Second; res.wall > limit {
		fmt.Fprintf(os.Stderr, "perfbench: the run took %s, over twice the %ds it is sized for\n", res.wall.Round(time.Second), *seconds)
	}
	return report(e, res, *trace == 1)
}

func knownWorkload(w string) bool { return w == "clean" || w == "fragmented" || w == "sweep-mix" }

// runProbes starts n copies of this benchmark, one after another, each of
// which sets the workload up and exits, and returns their set-up times.
func runProbes(e *env, n int) ([]time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-probe-setup", "-workload", e.workload,
			"-seed", strconv.FormatUint(e.seed, 10), "-root", e.root, "-build", e.build,
			"-t0", strconv.FormatInt(time.Now().UnixNano(), 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		sec, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up probe printed %q", b)
		}
		out = append(out, time.Duration(sec*1e9))
	}
	return out, nil
}

// probeSetup sets the workload up as a measured run does, up to the first
// dispatched job or acknowledged sweep, and returns the time since launch.
func probeSetup(e *env) (time.Duration, error) {
	switch e.workload {
	case "clean", "fragmented":
		// markDispatch cancels the jobs, so every batch returns at once.
		if e.workload == "clean" {
			runClean(e)
		} else {
			runFragmented(e)
		}
		return e.dispatched.Sub(e.t0), nil
	case "sweep-mix":
		m, err := startMixService(filepath.Join(e.work, "svc"), filepath.Join(e.work, "store"), e.workers, nil, nil)
		if err != nil {
			return 0, err
		}
		cl := &mixClient{base: m.base, http: httpClient()}
		_, ack, err := cl.submit(catalogRequest(0, "probe"))
		d := ack.Sub(e.t0)
		if cerr := m.close(); err == nil {
			err = cerr
		}
		return d, err
	}
	return 0, fmt.Errorf("unknown -workload %q", e.workload)
}

// outcome is a finished measured run, whichever the workload.
type outcome struct {
	wall         time.Duration
	cpu          time.Duration
	peakRSSMB    float64
	setupSamples []time.Duration
	attempted    int
	failed       int
	problems     []string
	endToEnd     []metric // workload-specific end-to-end metrics
	layers       []metric // per-layer metrics (traced runs)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024            // KiB on Linux
}

// measure runs the workload once and checks its output.
func measure(e *env) (*outcome, error) {
	var (
		out *outcome
		err error
	)
	switch e.workload {
	case "clean", "fragmented":
		out, err = measureFigures(e)
	case "sweep-mix":
		out, err = measureMix(e)
	}
	if err != nil {
		return nil, err
	}
	out.peakRSSMB = peakRSSMB()
	if e.rec != nil {
		tl, problems, err := finishTrace(e, out.wall)
		if err != nil {
			return nil, err
		}
		out.layers = append(out.layers, tl...)
		out.problems = append(out.problems, problems...)
	}
	return out, nil
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics as a table and then as the result line, and
// appends the result set to the workload's results file.
func report(e *env, o *outcome, traced bool) error {
	var ms []metric
	if traced {
		ms = completeLayers(o.layers)
	} else {
		setup := make([]float64, len(o.setupSamples))
		for i, d := range o.setupSamples {
			setup[i] = d.Seconds()
		}
		succ := 0.0
		if o.attempted > 0 {
			succ = float64(o.attempted-o.failed) / float64(o.attempted)
		}
		ms = append([]metric{
			{"wall_s", o.wall.Seconds(), "s"},
			{"cpu_s", o.cpu.Seconds(), "s"},
			{"peak_rss_mb", o.peakRSSMB, "MB"},
			{"setup_s", median(setup), "s"},
			{"success_frac", succ, "frac"},
		}, o.endToEnd...)
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	res := result{Correct: len(o.problems) == 0 && o.failed == 0, Attempted: o.attempted,
		Failed: o.failed, Metrics: map[string]metricValue{}}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# %s seed=%d traced=%v correct=%v attempted=%d failed=%d\n",
		e.workload, e.seed, traced, res.Correct, res.Attempted, res.Failed)
	for _, m := range ms {
		if !validMetricName(m.Name) {
			return fmt.Errorf("invalid metric name %q", m.Name)
		}
		res.Metrics[m.Name] = metricValue{m.Value, m.Unit}
		fmt.Fprintf(w, "# %-32s %16.6g %s\n", m.Name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return err
	}
	if traced {
		reportOverhead(e, o.wall)
	}
	return appendResult(e, res, traced)
}

// reportOverhead states the tracing overhead on standard error: the traced
// run's wall_s minus the median wall_s of the untraced runs of the same
// workload recorded on this host.
func reportOverhead(e *env, tracedWall time.Duration) {
	sets, err := loadResults(filepath.Join(e.build, "results", e.workload+".jsonl"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: tracing overhead unknown: no untraced %s runs recorded\n", e.workload)
		return
	}
	here := hostFingerprint(filepath.Join(e.build, "run"))
	var walls []float64
	for _, s := range sets {
		if m, ok := s.Metrics["wall_s"]; ok && !s.Traced && len(here.diff(s.Host)) == 0 {
			walls = append(walls, m.Value)
		}
	}
	if len(walls) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: tracing overhead unknown: no untraced %s runs recorded on this host\n", e.workload)
		return
	}
	base := median(walls)
	d := tracedWall.Seconds() - base
	fmt.Fprintf(os.Stderr, "perfbench: tracing overhead %+.3f s (%+.1f%%): traced wall_s %.3f s, untraced median %.3f s over %d runs\n",
		d, 100*d/base, tracedWall.Seconds(), base, len(walls))
}

// resultSet is one line of a results file.
type resultSet struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	result
}

func appendResult(e *env, res result, traced bool) error {
	dir := filepath.Join(e.build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(resultSet{Host: hostFingerprint(filepath.Join(e.build, "run")), Workload: e.workload,
		Seed: e.seed, Traced: traced, result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, e.workload+".jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadResults(path string) ([]resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []resultSet
	for i, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var r resultSet
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// compareResults prints, per workload and metric of the untraced runs in
// both files, the base and new medians, their difference and the base
// spread. Result sets from different hosts are not compared.
func compareResults(w *os.File, basePath, newPath string) error {
	base, err := loadResults(basePath)
	if err != nil {
		return err
	}
	cur, err := loadResults(newPath)
	if err != nil {
		return err
	}
	for _, a := range base {
		for _, b := range cur {
			if d := a.Host.diff(b.Host); len(d) > 0 {
				return fmt.Errorf("not comparable, the result sets come from different hosts: %s", strings.Join(d, "; "))
			}
		}
	}
	values := func(sets []resultSet, wl, name string) []float64 {
		var v []float64
		for _, s := range sets {
			if s.Workload == wl && !s.Traced {
				if m, ok := s.Metrics[name]; ok {
					v = append(v, m.Value)
				}
			}
		}
		return v
	}
	keys := map[[2]string]bool{}
	for _, s := range base {
		for name := range s.Metrics {
			if !s.Traced {
				keys[[2]string{s.Workload, name}] = true
			}
		}
	}
	var sorted [][2]string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i][0] < sorted[j][0] || sorted[i][0] == sorted[j][0] && sorted[i][1] < sorted[j][1]
	})
	fmt.Fprintf(w, "%-12s %-22s %12s %12s %9s %12s\n", "workload", "metric", "base p50", "new p50", "change", "base spread")
	for _, k := range sorted {
		a, b := values(base, k[0], k[1]), values(cur, k[0], k[1])
		if len(b) == 0 {
			continue
		}
		spread := "n/a"
		if s, err := quartileSpread(a); err == nil {
			spread = fmt.Sprintf("%.3f", s)
		}
		ma, mb := median(a), median(b)
		fmt.Fprintf(w, "%-12s %-22s %12.5g %12.5g %+8.1f%% %12s\n", k[0], k[1], ma, mb, 100*(mb-ma)/ma, spread)
	}
	return nil
}
