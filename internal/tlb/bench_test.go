package tlb

import (
	"testing"

	"repro/internal/stream"
	"repro/internal/units"
)

// BenchmarkHierarchyProbe measures the VA-only fast-path probe on a warm
// hierarchy — the single hottest operation in the simulator (one call per
// simulated memory reference).
func BenchmarkHierarchyProbe(b *testing.B) {
	h := NewHierarchy(Skylake())
	// Warm a 2MB-page working set that fits the shared L2.
	const pages = 512
	vas := make([]uint64, pages)
	for i := range vas {
		vas[i] = uint64(i) * units.Page2M
		h.Access(vas[i], units.Size2M)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := h.Probe(vas[i%pages]); !ok {
			b.Fatal("probe missed on a warm working set")
		}
	}
}

// BenchmarkHierarchyProbeMiss measures the full-miss probe (every sub-TLB
// checked, nothing found) — the cost added to the fault/walk path.
func BenchmarkHierarchyProbeMiss(b *testing.B) {
	h := NewHierarchy(Skylake())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct unmapped VAs: nothing is ever inserted, so all miss.
		if _, _, ok := h.Probe(uint64(i) * units.Page1G); ok {
			b.Fatal("probe hit on an empty hierarchy")
		}
	}
}

// BenchmarkProbeSweep measures the L1 tag sweep (SweepL1Runs) on a warm
// working set that fits the 4KB L1, over runs of length 1 — one probe per
// reference, so the bench isolates the sweep's per-probe cost from the
// bulk-hit arithmetic longer runs add. This is the régime the translation
// pipeline spends most of its time in (a full batch consumed as one tight
// loop, no scalar fallback). Reported per batch of 2000 references.
func BenchmarkProbeSweep(b *testing.B) {
	h := NewHierarchy(Skylake())
	const pages = 32 // 2 per set of the 16-set 4-way L1: all resident
	for i := 0; i < pages; i++ {
		h.Access(uint64(i)*units.Page4K, units.Size4K)
	}
	runs := make([]stream.Run, 2000)
	sizes := make([]uint8, len(runs))
	for i := range runs {
		runs[i] = stream.Run{VA: uint64(i%pages) * units.Page4K, Len: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.SweepL1Runs(runs, sizes) != len(runs) {
			b.Fatal("sweep parked on a warm working set")
		}
	}
}
