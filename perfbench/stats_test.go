package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for n := 0; n <= minBeyond; n++ {
		xs := make([]float64, n)
		if _, ok := tailPercentile(xs); ok {
			t.Errorf("%d samples: got a tail percentile, want refusal below %d", n, minBeyond+1)
		}
	}
	xs := []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	got, ok := tailPercentile(xs)
	if !ok || got.Value != 1 || got.N != 11 || math.Abs(got.Pct-100.0/11) > 1e-9 {
		t.Errorf("11 samples: got %+v, %v; want the minimum at p9.09", got, ok)
	}
	xs = nil
	for i := 1; i <= 200; i++ {
		xs = append(xs, float64(i))
	}
	got, _ = tailPercentile(xs)
	if got.Value != 190 || got.Pct != 95 {
		t.Errorf("200 samples: got %+v, want p95 = 190 with 10 samples beyond", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != minBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, minBeyond)
	}
}

// A bimodal sweep mix: cheap cached sweeps and expensive new ones. The
// overall median lands between the modes and moves with the mix; the
// per-kind medians stay on their own modes.
func TestKindMediansSeparateBimodalInput(t *testing.T) {
	var kinds []string
	var xs []float64
	for i := 0; i < 21; i++ {
		kinds = append(kinds, kindCached)
		xs = append(xs, 10+float64(i%3))
	}
	for i := 0; i < 20; i++ {
		kinds = append(kinds, kindNew)
		xs = append(xs, 100+float64(i%5))
	}
	all := median(xs)
	m := kindMedians(kinds, xs)
	if m[kindCached] != 11 || m[kindNew] != 102 {
		t.Errorf("per-kind medians %v, want cached 11, new 102", m)
	}
	// One more new sweep flips the overall median across the gap; the
	// per-kind medians do not move.
	kinds, xs = append(kinds, kindNew, kindNew), append(xs, 102, 102)
	if after := median(xs); math.Abs(after-all) < 50 {
		t.Errorf("overall median moved only from %.1f to %.1f; the input is not bimodal enough to test", all, after)
	}
	if m2 := kindMedians(kinds, xs); m2[kindCached] != 11 || m2[kindNew] != 102 {
		t.Errorf("per-kind medians moved to %v", m2)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"wall_s", "sim.build_s", "a", "9lives", "store.get-ms"} {
		if !validMetricName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := ""
	for i := 0; i < 65; i++ {
		long += "a"
	}
	for _, bad := range []string{"", "_wall", ".x", "wall s", "wall/s", "p50%", "naïve", long} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, name := range endToEndMetrics {
		if !validMetricName(name) {
			t.Errorf("declared metric %q has an invalid name", name)
		}
	}
	for _, m := range perLayerMetrics {
		if !validMetricName(m.Name) {
			t.Errorf("declared metric %q has an invalid name", m.Name)
		}
	}
}

// BENCHMARK.json and the metric lists the benchmark prints must agree.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if !knownWorkload(w.Name) {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEndMetrics[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %q, benchmark %q", i, m.Name, endToEndMetrics[i])
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayerMetrics[i].Name || m.Unit != perLayerMetrics[i].Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s, benchmark %s/%s",
				i, m.Name, m.Unit, perLayerMetrics[i].Name, perLayerMetrics[i].Unit)
		}
	}
}

// Figure 10's grid fragments one machine per (workload, policy). THP and
// HawkEye both use the stock buddy allocator, so they share an input, and
// Trident's 1GB-aware allocator gets its own. The input also depends on the
// footprint, which two pairs of workloads share (GUPS and Memcached 8GB,
// Btree and Redis 4.5GB): 24 applies, 12 distinct inputs. The benchmark's
// subset (SVM, Btree, Redis, Canneal) has 12 applies and 6 inputs.
func TestRepeatFracOnFigure10Grid(t *testing.T) {
	var all, subset []fragInput
	for _, w := range workload.Sensitive() {
		for _, p := range []sim.PolicyKind{sim.PolicyTHP, sim.PolicyHawkEye, sim.PolicyTrident} {
			cfg := fullScale(1, w, p)
			cfg.Fragment = true
			all = append(all, fragInputOf(cfg))
			if fragSubset[w.Name] {
				subset = append(subset, fragInputOf(cfg))
			}
		}
	}
	if len(all) != 24 || len(subset) != 12 {
		t.Fatalf("%d and %d applies, want 24 and 12", len(all), len(subset))
	}
	if got := repeatFrac(all); got != 0.5 {
		t.Errorf("full grid: repeat_frac = %v, want 0.5", got)
	}
	if got := repeatFrac(subset); got != 0.5 {
		t.Errorf("subset: repeat_frac = %v, want 0.5", got)
	}
	if got := repeatFrac([]int{1, 1, 1, 2}); got != 0.5 {
		t.Errorf("{1,1,1,2}: repeat_frac = %v, want 0.5", got)
	}
	if got := repeatFrac([]int{1, 2, 3}); got != 0 {
		t.Errorf("distinct inputs: repeat_frac = %v, want 0", got)
	}
	if got := repeatFrac([]int{}); got != 0 {
		t.Errorf("no inputs: repeat_frac = %v, want 0", got)
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	got, err := quartileSpread(xs)
	if err != nil || math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %v, %v; want %v", got, err, (8.25-2.75)/5.5)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Layer: layerRun, Start: at(0), End: at(100)},
		// Two overlapping children cover 10..50; a third 60..70.
		{ID: 2, Parent: 1, Layer: layerRunner, Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Layer: layerRunner, Start: at(30), End: at(50)},
		{ID: 4, Parent: 1, Layer: layerRunner, Start: at(60), End: at(70)},
		// A child reaching past its parent counts only inside it.
		{ID: 5, Parent: 4, Layer: layerStore, Start: at(65), End: at(80)},
	}
	self := selfTimes(spans)
	if want := 50 * time.Millisecond; self[layerRun] != want {
		t.Errorf("bench self time %v, want %v", self[layerRun], want)
	}
	// 30 + 20 + (10 - the 5 the store call covers).
	if want := 55 * time.Millisecond; self[layerRunner] != want {
		t.Errorf("runner self time %v, want %v", self[layerRunner], want)
	}
}

func TestPlanMixHoldsTheGeneratedMix(t *testing.T) {
	const n = 40
	plan, stored := planMix(7, n)
	if len(plan) != n/(phaseSweeps*mixClients)*len(mixKinds) {
		t.Fatalf("%d phases, want one per kind and round", len(plan))
	}
	count := map[string]int{}
	ids := map[string]bool{}
	storedSet := map[int]bool{}
	for _, g := range stored {
		storedSet[g] = true
	}
	fresh := map[int]bool{}
	finished := map[int]bool{} // by the end of the previous phase
	for ph, phase := range plan {
		if len(phase[0]) != len(phase[1]) {
			t.Errorf("phase %d: the clients submit %d and %d sweeps", ph, len(phase[0]), len(phase[1]))
		}
		var done []int
		for c, sweeps := range phase {
			for i, p := range sweeps {
				// Each phase holds one kind, so no sweep queues behind
				// another kind's.
				if p.Kind != mixKinds[ph%len(mixKinds)] {
					t.Errorf("phase %d holds a %s sweep", ph, p.Kind)
				}
				count[p.Kind]++
				id := string(mustJSON(t, catalogRequest(p.Grid, p.Client)))
				if ids[id] {
					t.Errorf("client %d sweep %d repeats a request: it would not get a fresh sweep id", c, i)
				}
				ids[id] = true
				switch p.Kind {
				case kindCached:
					if !finished[p.Grid] || !storedSet[p.Grid] {
						t.Errorf("cached sweep of grid %d, which no stored sweep finished before", p.Grid)
					}
				case kindStored:
					if !storedSet[p.Grid] || p.Grid < catalogSize {
						t.Errorf("stored sweep of unseeded or write grid %d", p.Grid)
					}
				case kindNew:
					if storedSet[p.Grid] || fresh[p.Grid] || p.Grid >= catalogSize {
						t.Errorf("new sweep of grid %d that is not a new write grid", p.Grid)
					}
					fresh[p.Grid] = true
				}
				done = append(done, p.Grid)
			}
		}
		for _, g := range done {
			finished[g] = true
		}
	}
	for _, k := range mixKinds {
		if count[k] != n {
			t.Errorf("%d %s sweeps, want %d", count[k], k, n)
		}
	}
	again, _ := planMix(7, n)
	if string(mustJSON(t, again)) != string(mustJSON(t, plan)) {
		t.Error("the same seed planned a different mix")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
