// Package stream holds the flat reference-stream type shared by the
// run-coalesced translation pipeline: workload.NextRuns fills a []Run
// buffer, tlb.SweepL1Runs and mmu.TranslateRuns consume it. It is a leaf
// package (like units and xrand) so every layer of the pipeline can
// exchange buffers without introducing cross-layer imports.
package stream

// Run is a maximal run of Len consecutive references to the same page,
// represented by the run's first reference: its virtual address and whether
// it writes (workload.NextRuns coalesces at draw time; the page boundary is
// the finest configured page size, so a run stays within one page at every
// size a TLB could map it with). The struct is deliberately flat (no
// pointers) so a batch of runs is a single contiguous allocation that the
// pipeline reuses across batches. tlb.SweepL1Runs and mmu.TranslateRuns
// perform one probe or walk per run and weight the hit/miss counters by
// Len — byte-identical to translating each reference, see DESIGN.md §5c.
type Run struct {
	VA    uint64
	Write bool
	Len   int
}
