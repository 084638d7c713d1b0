package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Layers a span can belong to, outermost first. Spans are recorded by the
// benchmark around calls into the program's public functions; nothing
// inside the program is instrumented.
const (
	layerRun         = "bench"       // one workload run
	layerExperiments = "experiments" // one experiment driver call
	layerService     = "service"     // one sweep, or one HTTP exchange of it
	layerRunner      = "runner"      // one job, from the runner's delivery records
	layerStore       = "store"       // one store driver call
)

// span is one timed call. Parent is the ID of the span that caused it (0
// for the root); Sweep correlates every span of one sweep.
type span struct {
	ID, Parent int
	Name       string
	Layer      string
	Sweep      string
	Start, End time.Time
}

// recorder keeps spans in memory until the run ends. A nil recorder is an
// untraced run: every method is a no-op, so untraced runs pay nothing.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	origin time.Time
	cost   time.Duration // time spent inside the recorder itself
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name, layer string, parent int, sweep string) int {
	if r == nil {
		return 0
	}
	t := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent,
		Name: name, Layer: layer, Sweep: sweep, Start: t})
	r.cost += time.Since(t)
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.cost += time.Since(t)
	r.mu.Unlock()
}

// endSweep closes span id and tags it with the sweep it turned out to be.
func (r *recorder) endSweep(id int, sweep string) {
	if r == nil || id == 0 {
		return
	}
	t := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.spans[id-1].Sweep = sweep
	r.cost += time.Since(t)
	r.mu.Unlock()
}

// add records a span whose times were measured elsewhere and returns its ID.
func (r *recorder) add(s span) int {
	if r == nil {
		return 0
	}
	t := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.cost += time.Since(t)
	return s.ID
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End.Sub(s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// traceEvent is one Chrome/Perfetto trace event, the format cmd/tracecheck
// validates.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTrace renders spans as duration-begin/end pairs. Spans of one layer
// are packed onto as few tracks as keep them from overlapping, so each
// track's events nest trivially; the causal link travels in args (id,
// parent, sweep). Timestamps are whole microseconds since the run began,
// rounded down at both ends so a span ending where the next begins never
// reorders them.
func writeTrace(path string, origin time.Time, spans []span, self map[string]time.Duration) error {
	layers := []string{layerRun, layerExperiments, layerService, layerRunner, layerStore}
	us := func(t time.Time) uint64 {
		if t.Before(origin) {
			return 0
		}
		return uint64(t.Sub(origin).Microseconds())
	}
	var events []traceEvent
	tid := 0
	for _, layer := range layers {
		var mine []span
		for _, s := range spans {
			if s.Layer == layer {
				mine = append(mine, s)
			}
		}
		sort.SliceStable(mine, func(i, j int) bool { return mine[i].Start.Before(mine[j].Start) })
		var tracks [][]span
		for _, s := range mine {
			placed := false
			for i, tr := range tracks {
				if !tr[len(tr)-1].End.After(s.Start) {
					tracks[i] = append(tr, s)
					placed = true
					break
				}
			}
			if !placed {
				tracks = append(tracks, []span{s})
			}
		}
		for i, tr := range tracks {
			tid++
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": fmt.Sprintf("%s %d", layer, i)}})
			for _, s := range tr {
				args := map[string]any{"id": s.ID, "parent": s.Parent}
				if s.Sweep != "" {
					args["sweep"] = s.Sweep
				}
				events = append(events,
					traceEvent{Name: s.Name, Ph: "B", Ts: us(s.Start), Pid: 1, Tid: tid, Args: args},
					traceEvent{Name: s.Name, Ph: "E", Ts: us(s.End), Pid: 1, Tid: tid})
			}
		}
	}
	selfMs := map[string]float64{}
	for k, v := range self {
		selfMs[k] = float64(v.Nanoseconds()) / 1e6
	}
	data, err := json.Marshal(struct {
		TraceEvents []traceEvent       `json:"traceEvents"`
		SelfMs      map[string]float64 `json:"selfTimeMsByLayer"`
	}{events, selfMs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
