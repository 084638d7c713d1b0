package main

import (
	"context"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// jobRecord is one job as the runner's per-job log records describe it:
// the "job dispatched" record stamps its start, the "job delivered" record
// carries its wall time and which memo tier served it.
type jobRecord struct {
	Experiment string // runner label: the experiment, or "sweep/<id>"
	Index      int
	Name       string
	Sweep      string // sweep_id attribute, for jobs run by the service
	Source     string // executed, cache, checkpoint, store, skipped, failed
	Start      time.Time
	WallMs     float64
}

// jobLog collects job records from a slog.Handler the benchmark passes as
// the runner's logger. It is attached only to traced runs.
type jobLog struct {
	mu         sync.Mutex
	dispatched map[jobKey]time.Time
	jobs       []jobRecord
}

type jobKey struct {
	experiment string
	index      int
}

func newJobLog() *jobLog { return &jobLog{dispatched: map[jobKey]time.Time{}} }

// logger returns a logger feeding l; nil for a nil jobLog.
func (l *jobLog) logger() *slog.Logger {
	if l == nil {
		return nil
	}
	return slog.New(jobHandler{log: l})
}

// records returns the delivered jobs in start order.
func (l *jobLog) records() []jobRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]jobRecord(nil), l.jobs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

type jobHandler struct {
	log   *jobLog
	attrs []slog.Attr
}

func (h jobHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h jobHandler) WithAttrs(as []slog.Attr) slog.Handler {
	return jobHandler{log: h.log, attrs: append(append([]slog.Attr(nil), h.attrs...), as...)}
}

func (h jobHandler) WithGroup(string) slog.Handler { return h }

func (h jobHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "job dispatched" && r.Message != "job delivered" && r.Message != "job failed" {
		return nil
	}
	var rec jobRecord
	visit := func(a slog.Attr) bool {
		v := a.Value.Resolve()
		switch a.Key {
		case "experiment":
			rec.Experiment = v.String()
		case "index":
			rec.Index = int(v.Int64())
		case "job":
			rec.Name = v.String()
		case "sweep_id":
			rec.Sweep = v.String()
		case "source":
			rec.Source = v.String()
		case "wall_ms":
			rec.WallMs = v.Float64()
		}
		return true
	}
	for _, a := range h.attrs {
		visit(a)
	}
	r.Attrs(visit)
	key := jobKey{rec.Experiment, rec.Index}
	h.log.mu.Lock()
	defer h.log.mu.Unlock()
	if r.Message == "job dispatched" {
		h.log.dispatched[key] = r.Time
		return nil
	}
	start, ok := h.log.dispatched[key]
	if !ok {
		// Never dispatched (skipped after cancellation): it took no time.
		start = r.Time
	}
	rec.Start = start
	if rec.Source == "" {
		rec.Source = "failed"
	}
	h.log.jobs = append(h.log.jobs, rec)
	return nil
}
