package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// heldOutSeed is the second seed whose figure tables are pinned: no
// benchmark setting was tuned on it.
const heldOutSeed = 2

//go:embed pins.json
var pinsJSON []byte

// pins are sha256 digests of outputs at the commit that defined the
// benchmark. Tables is keyed "<workload>/<table>@<seed>"; the seed-1
// entries are digests of the committed report/*.csv rows the workload
// regenerates, used when report/ is not present. Sweeps holds the report
// digest of each sweep-mix catalog grid.
var pins struct {
	Tables map[string]string `json:"tables"`
	Sweeps []string          `json:"sweeps"`
}

func init() {
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		panic(fmt.Sprintf("pins.json: %v", err))
	}
}

func tableKey(workload, table string, seed uint64) string {
	return fmt.Sprintf("%s/%s@%d", workload, table, seed)
}

// committed returns the committed report rows a workload's table must
// reproduce at the default seed, restricted to the rows the workload runs,
// or "" when the report is not in the checkout.
func committed(root, workload, table string) string {
	data, err := os.ReadFile(filepath.Join(root, "report", table+".csv"))
	if err != nil {
		return ""
	}
	if workload != "fragmented" {
		return string(data)
	}
	lines := strings.SplitAfter(string(data), "\n")
	var b strings.Builder
	b.WriteString(lines[0])
	for _, ln := range lines[1:] {
		if w, _, _ := strings.Cut(ln, ","); fragSubset[w] {
			b.WriteString(ln)
		}
	}
	return b.String()
}

// checkTable checks one regenerated table and returns how many rows it
// should have and how many of them are wrong or missing. At the default
// seed rows must equal the committed report; at a pinned seed the table
// must match its digest; at any other seed each row must have the
// committed report's shape: the same header and row keys, numeric cells,
// and 1 in every normalized column of a workload's baseline row.
func checkTable(e *env, table, got string) (rows, bad int, problem string) {
	want := committed(e.root, e.workload, table)
	pin, pinned := pins.Tables[tableKey(e.workload, table, e.seed)]
	wantRows := splitRows(want)
	gotRows := splitRows(got)
	rows = len(wantRows) - 1
	if want == "" {
		rows = len(gotRows) - 1
	}
	if rows < 1 {
		return 1, 1, table + ": no rows"
	}
	switch {
	case e.seed == sim.DefaultSeed && want != "":
		for i := 1; i <= rows; i++ {
			if i >= len(gotRows) || gotRows[i] != wantRows[i] || gotRows[0] != wantRows[0] {
				bad++
			}
		}
		if bad > 0 {
			problem = fmt.Sprintf("%s: %d of %d rows differ from report/%s.csv", table, bad, rows, table)
		}
	case pinned:
		if d := digest([]byte(got)); d != pin {
			return rows, rows, fmt.Sprintf("%s: digest %s, pinned %s", table, d, pin)
		}
	default:
		ref := wantRows
		if want == "" {
			ref = gotRows
		}
		bad = shapeErrors(ref, gotRows)
		if bad > 0 {
			problem = fmt.Sprintf("%s: %d of %d rows do not have the committed report's shape", table, bad, rows)
		}
	}
	return rows, bad, problem
}

func splitRows(csv string) []string {
	if csv == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
}

// shapeErrors counts the data rows of got that do not have ref's shape.
func shapeErrors(ref, got []string) int {
	if len(got) == 0 || got[0] != ref[0] {
		return len(ref) - 1
	}
	header := strings.Split(ref[0], ",")
	bad := 0
	prevWorkload := ""
	for i := 1; i < len(ref); i++ {
		if i >= len(got) {
			bad++
			continue
		}
		r, g := strings.Split(ref[i], ","), strings.Split(got[i], ",")
		ok := len(g) == len(header) && g[0] == r[0] && g[1] == r[1]
		baseline := g[0] != prevWorkload
		prevWorkload = g[0]
		for c := 2; ok && c < len(g); c++ {
			if _, err := strconv.ParseFloat(g[c], 64); err != nil && g[c] != "true" && g[c] != "false" {
				ok = false
			}
			if baseline && strings.HasSuffix(header[c], "_norm") && g[c] != "1" {
				ok = false
			}
		}
		if !ok {
			bad++
		}
	}
	return bad
}

// pinDigests computes every digest pins.json holds, from fresh runs of
// this commit, and writes them as JSON. The seed-1 table digests are
// checked against the committed report first.
func pinDigests(e *env, w io.Writer) error {
	out := struct {
		Tables map[string]string `json:"tables"`
		Sweeps []string          `json:"sweeps"`
	}{Tables: map[string]string{}}
	for _, wl := range []string{"clean", "fragmented"} {
		for _, seed := range []uint64{sim.DefaultSeed, heldOutSeed} {
			e.workload, e.seed = wl, seed
			var fo *figOutcome
			if wl == "clean" {
				fo = runClean(e)
			} else {
				fo = runFragmented(e)
			}
			if len(fo.failures) > 0 {
				return fmt.Errorf("%s seed %d: %s", wl, seed, fo.failures[0])
			}
			for _, t := range fo.tables {
				csv := t.table.CSV()
				if want := committed(e.root, wl, t.name); seed == sim.DefaultSeed && csv != want {
					return fmt.Errorf("%s %s at seed 1 differs from the committed report", wl, t.name)
				}
				out.Tables[tableKey(wl, t.name, seed)] = digest([]byte(csv))
			}
			fmt.Fprintf(os.Stderr, "pinned %s seed %d\n", wl, seed)
		}
	}
	reports, err := catalogReports(e)
	if err != nil {
		return err
	}
	for i := range reports {
		out.Sweeps = append(out.Sweeps, digest(reports[i]))
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// catalogReports runs every sweep-mix catalog grid through a sweep service
// and returns the reports, by catalog index.
func catalogReports(e *env) ([][]byte, error) {
	grids := make([]int, 2*catalogSize)
	for i := range grids {
		grids[i] = i
	}
	byGrid, err := seedStore(e.ctx, filepath.Join(e.work, "pin-svc"), filepath.Join(e.work, "pin-store"), e.workers, grids)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(grids))
	for i := range out {
		out[i] = byGrid[i]
	}
	return out, nil
}
