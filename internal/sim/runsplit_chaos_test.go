package sim

import (
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/mmu"
	"repro/internal/stream"
	"repro/internal/units"
	"repro/internal/vmm"
)

// faultEvent is one translate-fault service: the expanded reference index
// it happened at, the VA handed to the policy, and whether Handle errored.
type faultEvent struct {
	ref     int
	va      uint64
	errored bool
}

// runSplitMachine boots one half of the A/B pair: a kernel with a
// chaos-wired buddy, a task with one 2MB-aligned demand-paged VMA, the THP
// policy, and a shadow-checked MMU. Chaos fails most 2MB attempts (forcing
// the 4KB fallback mid-run); chaos exempts order-0 allocations by design,
// so the same FailAlloc hook additionally fails every 13th allocation when
// it is order-0 — a deterministic pattern that turns some Handle calls into
// errors, which is the only way a run splits.
func runSplitMachine(t *testing.T, bytes uint64) (*kernel.Kernel, *kernel.Task, *mmu.MMU, fault.Policy, *chaos.Injector, uint64) {
	t.Helper()
	k := kernel.New(2*units.Page1G, units.TridentMaxOrder)
	task := k.NewTask("runsplit")
	va, err := task.AS.MMapAligned(bytes, units.Page2M, vmm.KindAnon)
	if err != nil {
		t.Fatal(err)
	}
	m := mmu.New(*tinyTLB())
	m.ShadowCheck = true
	inj := chaos.New(chaos.Config{Seed: 11, BuddyFailRate: 0.8})
	allocs := 0
	k.Buddy.FailAlloc = func(order int) bool {
		allocs++
		if order == 0 {
			return allocs%13 == 0
		}
		return inj.BuddyAllocFails(order)
	}
	return k, task, m, fault.NewTHP(k), inj, va
}

// TestChaosRunSplitEquivalence pins translateRuns' fault-splitting contract
// against the scalar loop under forced buddy failures. Real streams draw
// runs of length 1 (uniform references over multi-gigabyte windows), so
// this test hand-builds multi-reference runs over unmapped pages and drives
// them through mmu.TranslateRuns plus the run driver's exact skip logic
// (Handle error or third round → Len--, re-coalesce in place, re-arm the
// attempt counter) on one machine, and the expanded per-reference scalar
// loop on an identical second machine with an identically seeded injector.
// Every observable must match: the (reference index, VA, outcome) sequence
// of fault services, MMU per-size counters and fault count, TLB hit/walk
// counters, policy fault stats, chaos injection stats — and both machines
// must pass the whole-machine audit afterwards.
func TestChaosRunSplitEquivalence(t *testing.T) {
	// 300 runs of 3 references, each run on its own page, strided across a
	// 4MB region so some runs land inside 2MB ranges that earlier faults
	// mapped whole (translating at 2MB) and the rest demand-fault.
	const nRuns, runLen, stride = 300, 3, 3
	const regionBytes = 2 * units.Page2M

	// --- machine A: run-coalesced driver ---------------------------------
	k1, task1, m1, p1, inj1, base1 := runSplitMachine(t, regionBytes)
	runs := make([]stream.Run, nRuns)
	orig := make([]int, nRuns)  // original Len (driver mutates runs)
	start := make([]int, nRuns) // expanded index of each run's first ref
	for i := range runs {
		runs[i] = stream.Run{
			VA:    base1 + uint64(i*stride)*units.Page4K + uint64(i%7)*64,
			Write: i%3 == 0,
			Len:   runLen,
		}
		orig[i] = runLen
		start[i] = i * runLen
	}
	var runEvents []faultEvent
	splits := 0
	off, attempts, faultRun := 0, 0, -1
	for off < len(runs) {
		n := m1.TranslateRuns(task1.AS.PT, nil, runs[off:])
		off += n
		if off == len(runs) {
			break
		}
		ref := start[off] + (orig[off] - runs[off].Len)
		if off != faultRun {
			faultRun, attempts = off, 0
		}
		attempts++
		_, err := p1.Handle(task1, runs[off].VA)
		runEvents = append(runEvents, faultEvent{ref, runs[off].VA, err != nil})
		if err != nil {
			if runs[off].Len > 1 {
				splits++ // a mid-run split: the remainder re-coalesces
			}
			if runs[off].Len--; runs[off].Len == 0 {
				off++
			}
			faultRun = -1
			continue
		}
		if attempts == 3 {
			if runs[off].Len--; runs[off].Len == 0 {
				off++
			}
			faultRun = -1
		}
	}

	// --- machine B: expanded scalar loop ---------------------------------
	k2, task2, m2, p2, inj2, base2 := runSplitMachine(t, regionBytes)
	if base1 != base2 {
		t.Fatalf("machines diverge at mmap: %#x != %#x", base1, base2)
	}
	var scalarEvents []faultEvent
	ref := 0
	for i := 0; i < nRuns; i++ {
		lead := stream.Run{VA: base2 + uint64(i*stride)*units.Page4K + uint64(i%7)*64, Write: i%3 == 0}
		for j := 0; j < runLen; j++ {
			for attempt := 0; attempt < 3; attempt++ {
				if m2.Translate(task2.AS.PT, lead.VA, lead.Write) {
					break
				}
				_, err := p2.Handle(task2, lead.VA)
				scalarEvents = append(scalarEvents, faultEvent{ref, lead.VA, err != nil})
				if err != nil {
					break
				}
			}
			ref++
		}
	}

	// --- equivalence ------------------------------------------------------
	if splits == 0 {
		t.Fatal("no mid-run split happened; the test exercised nothing (raise BuddyFailRate or nRuns)")
	}
	if inj1.S.Injected[chaos.KindBuddyFail] == 0 {
		t.Fatal("chaos injected no buddy failures")
	}
	if !reflect.DeepEqual(runEvents, scalarEvents) {
		t.Errorf("fault service sequences differ:\nruns:   %d events %+v\nscalar: %d events %+v",
			len(runEvents), head(runEvents), len(scalarEvents), head(scalarEvents))
	}
	if m1.BySize != m2.BySize {
		t.Errorf("BySize differs:\nruns:   %+v\nscalar: %+v", m1.BySize, m2.BySize)
	}
	if m1.Faults != m2.Faults {
		t.Errorf("Faults: runs %d, scalar %d", m1.Faults, m2.Faults)
	}
	for s := units.PageSize(0); s < units.NumPageSizes; s++ {
		a1, l11, l21, w1 := m1.TLB.Counts(s)
		a2, l12, l22, w2 := m2.TLB.Counts(s)
		if a1 != a2 || l11 != l12 || l21 != l22 || w1 != w2 {
			t.Errorf("%s TLB counts differ: runs (%d,%d,%d,%d), scalar (%d,%d,%d,%d)",
				s, a1, l11, l21, w1, a2, l12, l22, w2)
		}
	}
	if !reflect.DeepEqual(p1.FaultStats(), p2.FaultStats()) {
		t.Errorf("policy stats differ:\nruns:   %+v\nscalar: %+v", p1.FaultStats(), p2.FaultStats())
	}
	if inj1.S != inj2.S {
		t.Errorf("chaos stats differ: runs %+v, scalar %+v", inj1.S, inj2.S)
	}
	for name, pair := range map[string]struct {
		k    *kernel.Kernel
		m    *mmu.MMU
		task *kernel.Task
	}{"runs": {k1, m1, task1}, "scalar": {k2, m2, task2}} {
		views := []audit.TLBView{{H: pair.m.TLB, Task: pair.task}}
		if err := audit.Check(audit.Machine{K: pair.k, TLBs: views}); err != nil {
			t.Errorf("%s machine incoherent after chaos: %v", name, err)
		}
	}
}

// head truncates an event list for readable failure output.
func head(ev []faultEvent) []faultEvent {
	if len(ev) > 12 {
		return ev[:12]
	}
	return ev
}
