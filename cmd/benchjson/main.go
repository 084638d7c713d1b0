// Command benchjson records the per-PR benchmark trajectory the ROADMAP
// asks for: it runs BenchmarkFigure9 plus the translation microbenchmarks
// (BenchmarkNextRuns, BenchmarkTranslateRuns, BenchmarkProbeSweep,
// BenchmarkKernelReuse), appends one {pr, bench, benchtime, host,
// ns_per_op, bytes_per_op, allocs_per_op} record per bench to
// BENCH_trident.json, and exits 1 when any bench regressed more than
// -tolerance (default 15%) in ns/op — or in bytes/op, which catches
// allocation creep that a fast box hides — against its last recorded entry
// from an earlier PR on the same host. Only measured benches are gated, so
// records of benches since deleted stay in the file as history.
//
// A record's host names the machine and toolchain that measured it: CPU
// model, GOMAXPROCS, Go version and GOOS/GOARCH. The same code can read
// twice as slow on a smaller or busier machine, so a bench is compared only
// with records from its own host; records written before the field existed
// have no host and are history only. A bench with no record from this host
// starts a fresh baseline.
//
// Each suite carries its own -benchtime: the seconds-long Figure 9 macro
// benchmark runs 3 fixed iterations, while the microsecond-scale
// translation benchmarks run for 50ms of wall time (thousands of
// iterations) — at 3x a 15µs bench is three iterations, and run-to-run
// noise on a shared box dwarfs any real 15% change. Records are compared
// only against history measured under the same benchtime (records written
// before the field existed count as the then-global "3x"), so changing a
// suite's protocol starts a fresh baseline instead of faking a regression.
//
// Each bench is run -count times (default 3) and the minimum ns/op is
// recorded: the minimum estimates the code's true cost with far less
// variance than a single shot on a noisy box, which keeps the regression
// gate meaningful at a 15% threshold. Re-running for the same PR replaces
// that PR's records instead of duplicating them, so CI re-runs are
// idempotent. The PR number defaults to the highest "PR N" mentioned in
// CHANGES.md (the repo's one-line-per-PR log); -pr overrides it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Record is one measured benchmark at one PR. BytesPerOp is 0 on records
// written before PR 7 (when it started being tracked); the regression gate
// skips the bytes comparison against such records. Benchtime is empty on
// records from before it was tracked, when every suite ran at the then
// global default "3x"; the gate reads those as "3x". Host is empty on
// records from before it was tracked; the gate never compares with those.
type Record struct {
	PR          int     `json:"pr"`
	Bench       string  `json:"bench"`
	Benchtime   string  `json:"benchtime,omitempty"`
	Host        string  `json:"host,omitempty"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// histBenchtime is the protocol a history record was measured under.
func histBenchtime(r Record) string {
	if r.Benchtime == "" {
		return "3x" // the global default before per-suite benchtimes
	}
	return r.Benchtime
}

// suites lists the benchmark patterns, the packages that host them and the
// -benchtime each runs under. The Figure 9 macro-benchmark lives in the
// repo root and takes seconds per iteration, so a fixed tiny count bounds
// its wall time; the translation microbenchmarks sit next to their
// pipeline stages and take microseconds, so a time-based budget gives the
// thousands of iterations a stable estimate needs.
var suites = []struct {
	pattern   string
	benchtime string
	pkgs      []string
}{
	{"^BenchmarkFigure9$", "3x", []string{"."}},
	{"^(BenchmarkNextRuns|BenchmarkTranslateRuns|BenchmarkProbeSweep|BenchmarkKernelReuse)$",
		"50ms",
		[]string{"./internal/workload", "./internal/mmu", "./internal/tlb", "./internal/sim"}},
}

func main() {
	var (
		pr        = flag.Int("pr", 0, "PR number to record (0: highest PR mentioned in CHANGES.md)")
		file      = flag.String("file", "BENCH_trident.json", "trajectory file to append to")
		benchtime = flag.String("benchtime", "", "go test -benchtime override for every suite (default: per-suite values)")
		count     = flag.Int("count", 3, "runs per bench; the minimum ns/op is recorded")
		tolerance = flag.Float64("tolerance", 0.15, "allowed fractional ns/op regression vs the last recorded entry")
	)
	flag.Parse()

	if *pr == 0 {
		n, err := prFromChanges("CHANGES.md")
		if err != nil {
			fatal(err)
		}
		*pr = n
	}

	measured, err := runSuites(*benchtime, *count)
	if err != nil {
		fatal(err)
	}
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark output parsed"))
	}

	history, err := load(*file)
	if err != nil {
		fatal(err)
	}

	// Regression check: each measured bench against its baseline, on ns/op
	// and (where the baseline has it) bytes/op.
	var regressions []string
	for _, m := range measured {
		h, ok := baseline(history, m, *pr)
		if !ok {
			continue
		}
		if m.NsPerOp > h.NsPerOp*(1+*tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op vs %.0f at PR %d (%+.1f%%, tolerance %.0f%%)",
					m.Bench, m.NsPerOp, h.NsPerOp, h.PR,
					100*(m.NsPerOp/h.NsPerOp-1), 100**tolerance))
		}
		if h.BytesPerOp > 0 && m.BytesPerOp > h.BytesPerOp*(1+*tolerance) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f B/op vs %.0f at PR %d (%+.1f%%, tolerance %.0f%%)",
					m.Bench, m.BytesPerOp, h.BytesPerOp, h.PR,
					100*(m.BytesPerOp/h.BytesPerOp-1), 100**tolerance))
		}
	}

	// Replace any same-PR records for the measured benches, then append.
	kept := history[:0]
	for _, h := range history {
		stale := false
		for _, m := range measured {
			if h.PR == *pr && h.Bench == m.Bench {
				stale = true
				break
			}
		}
		if !stale {
			kept = append(kept, h)
		}
	}
	for _, m := range measured {
		m.PR = *pr
		kept = append(kept, m)
	}
	if err := save(*file, kept); err != nil {
		fatal(err)
	}

	for _, m := range measured {
		fmt.Printf("PR %d  %-40s %14.0f ns/op %14.0f B/op %10.0f allocs/op\n", *pr, m.Bench, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	if len(regressions) > 0 {
		fmt.Fprintln(os.Stderr, "benchjson: benchmark regression:")
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "  "+r)
		}
		os.Exit(1)
	}
}

// baseline returns the record m is gated against: the most recent record
// of the same bench from an earlier PR, measured on the same host under the
// same benchtime protocol. Records from other hosts, other protocols or
// before hosts were recorded are skipped; no match means a fresh baseline.
func baseline(history []Record, m Record, pr int) (Record, bool) {
	for i := len(history) - 1; i >= 0; i-- {
		h := history[i]
		if h.Bench == m.Bench && h.PR != pr && h.Host != "" && h.Host == m.Host && histBenchtime(h) == m.Benchtime {
			return h, true
		}
	}
	return Record{}, false
}

// hostID names the machine and toolchain a bench runs on: CPU model,
// GOMAXPROCS, Go version and GOOS/GOARCH. The go test subprocesses inherit
// this process's environment and toolchain, so they run under the same
// values.
func hostID() string {
	return fmt.Sprintf("%s; GOMAXPROCS=%d; %s; %s/%s",
		cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the first "model name" line of /proc/cpuinfo, or reports
// "unknown CPU" where there is none (non-Linux hosts, some ARM kernels).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown CPU"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(2)
}

// prFromChanges returns the highest "PR <n>" number mentioned in the
// per-PR change log.
func prFromChanges(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("deriving PR number: %w (pass -pr explicitly)", err)
	}
	max := 0
	for _, m := range regexp.MustCompile(`PR (\d+)`).FindAllStringSubmatch(string(data), -1) {
		if n, _ := strconv.Atoi(m[1]); n > max {
			max = n
		}
	}
	if max == 0 {
		return 0, fmt.Errorf("no \"PR <n>\" entries in %s (pass -pr explicitly)", path)
	}
	return max, nil
}

// runSuites measures every suite and returns one Record per bench holding
// the minimum ns/op (and its allocs/op) across the -count runs, each record
// stamped with the -benchtime it ran under and the host. A non-empty
// override replaces every suite's own benchtime.
func runSuites(override string, count int) ([]Record, error) {
	host := hostID()
	best := map[string]Record{}
	var order []string
	for _, s := range suites {
		bt := s.benchtime
		if override != "" {
			bt = override
		}
		args := append([]string{"test", "-run", "^$", "-bench", s.pattern,
			"-benchtime", bt, "-count", strconv.Itoa(count), "-benchmem"}, s.pkgs...)
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, out)
		}
		for _, line := range strings.Split(string(out), "\n") {
			rec, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			rec.Benchtime = bt
			rec.Host = host
			prev, seen := best[rec.Bench]
			if !seen {
				order = append(order, rec.Bench)
			}
			if !seen || rec.NsPerOp < prev.NsPerOp {
				best[rec.Bench] = rec
			}
		}
	}
	recs := make([]Record, 0, len(order))
	for _, name := range order {
		recs = append(recs, best[name])
	}
	return recs, nil
}

// cpuSuffix strips the -<GOMAXPROCS> suffix go test appends to bench names
// on multi-core machines, so records compare across machines.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchLine parses one "BenchmarkX  N  t ns/op  b B/op  a allocs/op"
// result line.
func parseBenchLine(line string) (Record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Record{}, false
	}
	rec := Record{Bench: cpuSuffix.ReplaceAllString(f[0], "")}
	found := false
	for i := 2; i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i-1], 64)
		if err != nil {
			continue
		}
		switch f[i] {
		case "ns/op":
			rec.NsPerOp = v
			found = true
		case "B/op":
			rec.BytesPerOp = v
		case "allocs/op":
			rec.AllocsPerOp = v
		}
	}
	return rec, found
}

func load(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return recs, nil
}

func save(path string, recs []Record) error {
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
