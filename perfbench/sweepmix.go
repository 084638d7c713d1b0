package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The sweep-mix grids. Grids differ only in their simulation seed, within
// two shapes. New sweeps ask for writeGrid: two simulations of about 150 ms
// each, run side by side on the two workers. The service issues about a
// dozen fsyncs per new sweep, and on a shared disk their latency is the
// host's noise; simulations this long keep it a small share of a sweep.
// Stored and cached sweeps ask for readGrid: 44 simulations of a few
// milliseconds each. Serving a grid from the store or the memo cache costs
// the same whatever it took to simulate, so the cheap shape keeps
// publishing the stored grids short, and its many cells give the read
// path several milliseconds of its own work a sweep.
var (
	writeGrid = service.SweepRequest{
		Workloads: []string{"Redis"},
		Policies:  []string{"thp", "trident"},
		MemGB:     16,
		Scale:     0.5,
		Accesses:  200_000,
	}
	readGrid = service.SweepRequest{
		Workloads: []string{"XSBench", "SVM", "GUPS", "Btree", "Redis", "Memcached", "Canneal", "CC", "BC", "PR", "CG.D"},
		Policies:  []string{"thp", "hugetlbfs2m", "trident", "trident-nc"},
		MemGB:     4,
		Scale:     0.02,
		Accesses:  20_000,
	}
)

const (
	// catalogSize is how many grids of each shape the generator draws from:
	// catalog indices below it are write grids, the next catalogSize read
	// grids. pins.json holds the report digest of each.
	catalogSize = 512
	// catalogSeed0 is the simulation seed of catalog grid 0.
	catalogSeed0 = 1000
	// mixClients is the number of closed-loop clients; each has one sweep
	// in flight and one HTTP connection.
	mixClients = 2
)

// Sweep kinds.
const (
	kindNew    = "new"    // unseen grid: simulated, then published to the store
	kindStored = "stored" // grid a separate pass published first: answered by store reads
	kindCached = "cached" // repeat of a grid this service finished: answered by the memo cache
)

var mixKinds = []string{kindNew, kindStored, kindCached}

// catalogRequest is the sweep request for catalog grid i.
func catalogRequest(i int, client string) service.SweepRequest {
	req := writeGrid
	if i >= catalogSize {
		req = readGrid
	}
	req.Seed = uint64(catalogSeed0 + i)
	req.Client = client
	return req
}

// plannedSweep is one sweep of a client's closed-loop sequence.
type plannedSweep struct {
	Kind   string
	Grid   int // catalog index
	Client string
}

// mixPlan is a sweep mix: phases run one after another, and within a phase
// each client submits its sweeps one at a time.
type mixPlan [][mixClients][]plannedSweep

// phaseSweeps is how many sweeps each client submits in one phase of a
// sweep mix.
const phaseSweeps = 5

// planMix draws a sweep mix of n sweeps of each kind from seed, n a multiple
// of phaseSweeps*mixClients. The mix runs in rounds of three phases, one per
// kind: new sweeps of distinct write grids, then stored sweeps of distinct
// read grids, then cached sweeps, each of which repeats a grid a stored
// sweep finished in this or an earlier round, under a fresh client name so
// that it gets a fresh sweep id. planMix also returns the stored grids,
// which must be published before the service starts.
//
// The service runs one sweep at a time, so a client's sweep waits for the
// other client's. Phasing the kinds makes that wait one of the same kind: a
// read never queues behind a new sweep. Each kind's latency is then its own
// service time plus one more of its own kind, except for the first sweep of
// a phase, which finds the service idle: one sweep in 2*phaseSweeps, too few
// to move a median. The rounds spread each kind's sweeps over the whole run,
// so that its median does not hang on the host's state during a few seconds
// of it.
func planMix(seed uint64, n int) (plan mixPlan, storedGrids []int) {
	rng := xrand.New(seed)
	newGrids := rng.Perm(catalogSize)[:n]
	for _, g := range rng.Perm(catalogSize)[:n] {
		storedGrids = append(storedGrids, catalogSize+g)
	}
	per := phaseSweeps * mixClients
	for r := 0; r < n/per; r++ {
		var phases [3][mixClients][]plannedSweep
		for i := r * per; i < (r+1)*per; i++ {
			c := i % mixClients
			client := fmt.Sprintf("client%d", c)
			phases[0][c] = append(phases[0][c], plannedSweep{Kind: kindNew, Grid: newGrids[i], Client: client})
			phases[1][c] = append(phases[1][c], plannedSweep{Kind: kindStored, Grid: storedGrids[i], Client: client})
			phases[2][c] = append(phases[2][c], plannedSweep{Kind: kindCached, Grid: storedGrids[rng.Intn((r+1)*per)],
				Client: fmt.Sprintf("%s-r%d", client, i)})
		}
		plan = append(plan, phases[:]...)
	}
	return plan, storedGrids
}

// sweepObs is what a client saw of one sweep.
type sweepObs struct {
	plannedSweep
	ID                                   string
	Submit, Ack, Started, Done, Streamed time.Time
	Received                             time.Time
	Events                               int
	Report                               []byte
	Replayed                             string // header and rows reassembled from the event stream
	Err                                  error  // the exchange failed
	Wrong                                string // the output check failed
}

func (o *sweepObs) latencyMs() float64 { return ms(o.Received.Sub(o.Submit)) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// mixClient drives one closed loop over one HTTP connection.
type mixClient struct {
	base string
	http *http.Client
	rec  *recorder
	run  int // root span
}

// do submits one sweep, follows its event stream to the terminal line and
// fetches the report; only then does the caller submit its next sweep.
func (c *mixClient) do(p plannedSweep) sweepObs {
	o := sweepObs{plannedSweep: p, Submit: time.Now()}
	sp := c.rec.begin("sweep "+p.Kind, layerService, c.run, "")
	defer func() { c.rec.endSweep(sp, o.ID) }()

	x := c.rec.begin("POST /sweeps", layerService, sp, "")
	o.ID, o.Ack, o.Err = c.submit(catalogRequest(p.Grid, p.Client))
	c.rec.end(x)
	if o.Err != nil {
		return o
	}

	x = c.rec.begin("GET /sweeps/{id}/events", layerService, sp, o.ID)
	err := c.follow(&o)
	c.rec.end(x)
	o.Streamed = time.Now()
	if err != nil {
		o.Err = fmt.Errorf("events: %w", err)
		return o
	}

	x = c.rec.begin("GET /sweeps/{id}/report", layerService, sp, o.ID)
	resp, err := c.http.Get(c.base + "/sweeps/" + o.ID + "/report")
	if err == nil {
		o.Report, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(o.Report))
		}
	}
	c.rec.end(x)
	o.Received = time.Now()
	if err != nil {
		o.Err = fmt.Errorf("report: %w", err)
	}
	return o
}

// submit posts one sweep and returns its id and when it was acknowledged.
// Every sweep the benchmark submits is new to the service, so anything but
// 202 Accepted is a failure.
func (c *mixClient) submit(req service.SweepRequest) (string, time.Time, error) {
	body, _ := json.Marshal(req) // a plain struct: cannot fail
	resp, err := c.http.Post(c.base+"/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", time.Now(), fmt.Errorf("submit: %w", err)
	}
	var snap service.Sweep
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	ack := time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return "", ack, fmt.Errorf("submit: status %d (%v)", resp.StatusCode, err)
	}
	return snap.ID, ack, nil
}

// httpClient returns a client holding at most one connection per
// closed-loop client.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients}}
}

// follow reads the sweep's NDJSON event stream until the service closes it
// at the terminal state, stamping sweep_started and sweep_done and
// reassembling the report from the header and row events.
func (c *mixClient) follow(o *sweepObs) error {
	resp, err := c.http.Get(c.base + "/sweeps/" + o.ID + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	var header string
	rows := map[int]string{}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		o.Events++
		var ev struct {
			Event  string `json:"event"`
			Header string `json:"header"`
			Job    int    `json:"job"`
			Row    string `json:"row"`
			State  string `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad event line %q: %w", sc.Text(), err)
		}
		switch ev.Event {
		case "sweep_started":
			o.Started = time.Now()
			header = ev.Header
			rows = map[int]string{}
		case "row":
			rows[ev.Job] = ev.Row
		case "sweep_done":
			o.Done = time.Now()
		case "state":
			state = ev.State
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if state != service.StateDone || o.Started.IsZero() || o.Done.IsZero() {
		return fmt.Errorf("stream ended in state %q", state)
	}
	var b strings.Builder
	b.WriteString(header + "\n")
	for i := 0; i < len(rows); i++ {
		r, ok := rows[i]
		if !ok {
			return fmt.Errorf("stream is missing row %d", i)
		}
		b.WriteString(r + "\n")
	}
	o.Replayed = b.String()
	return nil
}

// timedDriver wraps the store's filesystem driver in traced runs, timing
// every Get and Put and recording each as a store span.
type timedDriver struct {
	store.Driver
	rec *recorder

	mu    sync.Mutex
	getMs []float64
	putMs []float64
}

func (d *timedDriver) Get(key string) ([]byte, error) {
	id := d.rec.begin("store get", layerStore, 0, "")
	t := time.Now()
	b, err := d.Driver.Get(key)
	el := ms(time.Since(t))
	d.rec.end(id)
	d.mu.Lock()
	d.getMs = append(d.getMs, el)
	d.mu.Unlock()
	return b, err
}

func (d *timedDriver) Put(key string, data []byte) error {
	id := d.rec.begin("store put", layerStore, 0, "")
	t := time.Now()
	err := d.Driver.Put(key, data)
	el := ms(time.Since(t))
	d.rec.end(id)
	d.mu.Lock()
	d.putMs = append(d.putMs, el)
	d.mu.Unlock()
	return err
}

// seedStore publishes the stored grids through a separate service sharing
// the store directory, before the timed service starts, and returns each
// grid's report: the report of the sweep that first computed it.
func seedStore(ctx context.Context, dir, storeDir string, workers int, grids []int) (map[int][]byte, error) {
	st, err := store.Open("fs:" + storeDir)
	if err != nil {
		return nil, err
	}
	out, err := seedThrough(ctx, st, dir, workers, grids)
	return out, errors.Join(err, st.Close())
}

func seedThrough(ctx context.Context, st *store.Store, dir string, workers int, grids []int) (map[int][]byte, error) {
	svc, err := service.New(service.Config{Dir: dir, Store: st, Parallelism: workers,
		QueueLimit: len(grids) + 1, PerClientLimit: len(grids) + 1})
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(grids))
	for i, g := range grids {
		sw, err := svc.Submit(catalogRequest(g, "seed"))
		if err != nil {
			return nil, fmt.Errorf("seeding grid %d: %w", g, err)
		}
		ids[i] = sw.ID
	}
	rctx, stop := context.WithCancel(ctx)
	runErr := make(chan error, 1)
	go func() { runErr <- svc.Run(rctx) }()
	out := map[int][]byte{}
	for i, id := range ids {
		for {
			sw, _ := svc.Get(id)
			if sw.State == service.StateDone {
				break
			}
			if sw.State == service.StateFailed {
				stop()
				<-runErr
				return nil, fmt.Errorf("seeding sweep %s failed: %s", id, sw.Error)
			}
			time.Sleep(2 * time.Millisecond)
		}
		rep, err := os.ReadFile(svc.ReportPath(id))
		if err != nil {
			stop()
			<-runErr
			return nil, err
		}
		out[grids[i]] = rep
	}
	stop()
	if err := <-runErr; err != nil {
		return nil, err
	}
	return out, nil
}

// mixService is the timed service: an in-process sweep service behind a
// loopback HTTP server, over a persistent filesystem store.
type mixService struct {
	svc    *service.Service
	st     *store.Store
	timed  *timedDriver
	srv    *http.Server
	base   string
	stop   context.CancelFunc
	runErr chan error
	served chan error
}

func startMixService(dir, storeDir string, workers int, rec *recorder, jobs *jobLog) (*mixService, error) {
	drv, err := store.NewFS(storeDir, nil)
	if err != nil {
		return nil, err
	}
	m := &mixService{}
	var d store.Driver = drv
	if rec != nil {
		m.timed = &timedDriver{Driver: drv, rec: rec}
		d = m.timed
	}
	m.st = store.New(d, store.DefaultRetry)
	m.svc, err = service.New(service.Config{Dir: dir, Store: m.st, Parallelism: workers, Log: jobs.logger()})
	if err != nil {
		m.st.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.st.Close()
		return nil, err
	}
	m.base = "http://" + ln.Addr().String()
	m.srv = &http.Server{Handler: m.svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	m.served = make(chan error, 1)
	go func() { m.served <- m.srv.Serve(ln) }()
	return m, nil
}

// start begins processing sweeps. Until then submissions only queue.
func (m *mixService) start() {
	var ctx context.Context
	ctx, m.stop = context.WithCancel(context.Background())
	m.runErr = make(chan error, 1)
	go func() { m.runErr <- m.svc.Run(ctx) }()
}

// close drains the service if it was started, stops the HTTP server and
// waits for both.
func (m *mixService) close() error {
	var errRun error
	if m.stop != nil {
		m.stop()
		errRun = <-m.runErr
	}
	errSrv := m.srv.Close()
	if err := <-m.served; !errors.Is(err, http.ErrServerClosed) {
		errSrv = errors.Join(errSrv, err)
	}
	return errors.Join(errRun, errSrv, m.st.Close())
}

// mixOutcome is one sweep-mix run.
type mixOutcome struct {
	obs        []sweepObs
	wall       time.Duration
	cpu        time.Duration
	gc0, gc1   gcCounters // around the closed loop
	cache      runner.CacheStats
	storeStats store.Stats
	timed      *timedDriver
	journal    int
	problems   []string
}

// latencies returns the latency of every sweep that completed.
func (mo *mixOutcome) latencies() []float64 {
	var out []float64
	for _, o := range mo.obs {
		if o.Err == nil {
			out = append(out, o.latencyMs())
		}
	}
	return out
}

// runMix publishes the stored grids, starts the timed service and runs
// the closed loop of n sweeps of each kind: mixClients clients, each
// submitting its planned sweeps one at a time, phase by phase.
func runMix(e *env, n int) (*mixOutcome, error) {
	plan, storedGrids := planMix(e.seed, n)
	storeDir := filepath.Join(e.work, "store")
	first, err := seedStore(context.Background(), filepath.Join(e.work, "seed-svc"), storeDir, e.workers, storedGrids)
	if err != nil {
		return nil, fmt.Errorf("seeding the store: %w", err)
	}
	// The timed service must answer stored grids from the store, not from
	// the memo entries the seeding pass left in this process.
	runner.ResetCache()
	runner.ResetProgress()

	svcDir := filepath.Join(e.work, "svc")
	m, err := startMixService(svcDir, storeDir, e.workers, e.rec, e.jobs)
	if err != nil {
		return nil, err
	}
	out := &mixOutcome{timed: m.timed}
	m.start()
	hc := httpClient()
	defer hc.CloseIdleConnections()

	results := make([][]sweepObs, mixClients)
	out.gc0 = readGC()
	start, cpu0 := time.Now(), cpuTime()
	runSpan := e.rec.begin("sweep-mix", layerRun, 0, "")
	for _, phase := range plan {
		var wg sync.WaitGroup
		for c := range phase {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := &mixClient{base: m.base, http: hc, rec: e.rec, run: runSpan}
				for _, p := range phase[c] {
					results[c] = append(results[c], cl.do(p))
				}
			}(c)
		}
		wg.Wait()
	}
	out.wall, out.cpu, out.gc1 = time.Since(start), cpuTime()-cpu0, readGC()
	e.rec.end(runSpan)
	out.cache = runner.Cache()
	out.storeStats = m.st.Stats()
	if err := m.close(); err != nil {
		return nil, fmt.Errorf("stopping the service: %w", err)
	}
	out.journal = countJournal(filepath.Join(svcDir, "sweeps"))
	for _, r := range results {
		out.obs = append(out.obs, r...)
	}
	out.problems = checkMix(out, first)
	return out, nil
}

// countJournal counts the checkpoint files the service's sweeps wrote.
func countJournal(sweeps string) int {
	n := 0
	ents, _ := os.ReadDir(sweeps)
	for _, s := range ents {
		files, _ := os.ReadDir(filepath.Join(sweeps, s.Name(), "checkpoint"))
		n += len(files)
	}
	return n
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkMix checks every sweep's output and the memo-tier counts against
// the generated mix. A sweep passes when its report equals the rows
// replayed from its own event stream and the digest pinned for its grid,
// and, for stored and cached sweeps, the report of the sweep that first
// computed the grid. It returns one line per problem and marks the sweeps
// that failed it Wrong.
func checkMix(out *mixOutcome, first map[int][]byte) []string {
	var problems []string
	for i := range out.obs {
		o := &out.obs[i]
		if o.Kind == kindNew {
			first[o.Grid] = o.Report
		}
	}
	for i := range out.obs {
		o := &out.obs[i]
		if o.Err != nil {
			problems = append(problems, fmt.Sprintf("sweep %s (%s, grid %d): %v", o.ID, o.Kind, o.Grid, o.Err))
			continue
		}
		pin := "none"
		if o.Grid < len(pins.Sweeps) {
			pin = pins.Sweeps[o.Grid]
		}
		switch {
		case string(o.Report) != o.Replayed:
			o.Wrong = "report differs from its replayed event stream"
		case digest(o.Report) != pin:
			o.Wrong = fmt.Sprintf("report digest %s, pinned %s", digest(o.Report), pin)
		case o.Kind != kindNew && !bytes.Equal(o.Report, first[o.Grid]):
			o.Wrong = "report differs from the sweep that first computed the grid"
		}
		if o.Wrong != "" {
			problems = append(problems, fmt.Sprintf("sweep %s (%s, grid %d): %s", o.ID, o.Kind, o.Grid, o.Wrong))
		}
	}
	count := map[string]uint64{}
	for _, o := range out.obs {
		req := catalogRequest(o.Grid, "")
		count[o.Kind] += uint64(len(req.Workloads) * len(req.Policies))
	}
	for _, c := range []struct {
		tier      string
		got, want uint64
	}{
		{"executed", out.cache.Misses, count[kindNew]},
		{"store hits", out.cache.StoreHits, count[kindStored]},
		{"memo hits", out.cache.Hits, count[kindCached]},
	} {
		if c.got != c.want {
			problems = append(problems, fmt.Sprintf("runner %s: %d, the mix implies %d", c.tier, c.got, c.want))
		}
	}
	return problems
}

// gridConfigs are the simulations the service runs for catalog grid i, as
// it builds them.
func gridConfigs(i int) []sim.Config {
	req := catalogRequest(i, "")
	var cfgs []sim.Config
	for _, wn := range req.Workloads {
		w, _ := workload.ByName(wn)
		for _, pn := range req.Policies {
			p, _ := sim.PolicyByName(pn)
			cfgs = append(cfgs, sim.Config{Workload: w, Policy: p, MemGB: req.MemGB, Scale: req.Scale,
				Accesses: req.Accesses, Seed: req.Seed, Fragment: req.Fragment})
		}
	}
	return cfgs
}
