package main

import (
	"strings"
	"testing"
)

// TestBaselineSameHostOnly pins the regression gate's choice of baseline:
// the latest earlier-PR record of the same bench, host and benchtime. A
// faster record from another host, or one written before hosts were
// recorded, is never the yardstick.
func TestBaselineSameHostOnly(t *testing.T) {
	const here, there = "cpu A; GOMAXPROCS=2; go1.22; linux/amd64", "cpu B; GOMAXPROCS=8; go1.22; linux/amd64"
	history := []Record{
		{PR: 10, Bench: "BenchmarkProbeSweep", Benchtime: "50ms", NsPerOp: 12100},
		{PR: 11, Bench: "BenchmarkProbeSweep", Benchtime: "50ms", Host: here, NsPerOp: 25000},
		{PR: 12, Bench: "BenchmarkProbeSweep", Benchtime: "3x", Host: here, NsPerOp: 20000},
		{PR: 12, Bench: "BenchmarkProbeSweep", Benchtime: "50ms", Host: there, NsPerOp: 9000},
		{PR: 13, Bench: "BenchmarkProbeSweep", Benchtime: "50ms", Host: here, NsPerOp: 26000},
		{PR: 12, Bench: "BenchmarkNextRuns", Benchtime: "50ms", Host: here, NsPerOp: 1000},
	}
	probe := func(benchtime, host string) Record {
		return Record{Bench: "BenchmarkProbeSweep", Benchtime: benchtime, Host: host}
	}
	for _, tc := range []struct {
		name   string
		m      Record
		pr     int
		wantNs float64 // 0: no baseline
	}{
		{"latest same host", probe("50ms", here), 14, 26000},
		{"own PR skipped", probe("50ms", here), 13, 25000},
		{"other host", probe("50ms", there), 14, 9000},
		{"new host", probe("50ms", "cpu C"), 14, 0},
		{"benchtime must match", probe("3x", here), 14, 20000},
		{"hostless history never compared", probe("50ms", ""), 14, 0},
		{"unrecorded bench", Record{Bench: "BenchmarkFigure9", Benchtime: "3x", Host: here}, 14, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, ok := baseline(history, tc.m, tc.pr)
			if ok != (tc.wantNs != 0) || h.NsPerOp != tc.wantNs {
				t.Fatalf("baseline = %+v (ok %v), want the %.0f ns/op record", h, ok, tc.wantNs)
			}
		})
	}
}

func TestHostIDNamesToolchain(t *testing.T) {
	id := hostID()
	for _, part := range []string{"; GOMAXPROCS=", "; go", "/"} {
		if !strings.Contains(id, part) {
			t.Fatalf("hostID() = %q, missing %q", id, part)
		}
	}
}
