package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// lazySizes are the sweeps the eager-vs-lazy invariants hold on: the CI
// artifact's (munin-bench -table lazy -procs 8 -n 96 -rows 64 -cols 512
// -iters 8) and a scaled-down one.
var lazySizes = map[string]LazyOpts{
	"ci":    {Procs: 8, N: 96, Rows: 64, Cols: 512, Iters: 8},
	"small": {Procs: 8, N: 64, Rows: 32, Cols: 512, Iters: 6, Rounds: 6, Cities: 8},
}

// lazyApps are the table's rows, in lazyWorkloads order.
var lazyApps = []string{"matmul", "sor", "tsp", "pipeline", "lockheavy"}

// lazyViolations lists every way t breaks the eager-vs-lazy invariants,
// absolute properties of the lazy engine that need no baseline: one row
// per workload; every workload correct under both engines with
// byte-identical sim images; strictly fewer lazy messages on the
// acquire-directed workloads (the lock-heavy ring and the pipeline); and
// some workload reclaiming diff records.
func lazyViolations(t LazyTable) []string {
	var v []string
	var apps []string
	gced := 0
	for _, r := range t.Rows {
		apps = append(apps, r.App)
		gced += r.LazyRecordsGCed
		if !r.ChecksOK {
			v = append(v, r.App+": wrong result under one of the engines")
		}
		if !r.ImageMatch {
			v = append(v, r.App+": engines ended with different final images")
		}
		if (r.App == "lockheavy" || r.App == "pipeline") && r.LazyMessages >= r.EagerMessages {
			v = append(v, fmt.Sprintf("%s: lazy sent %d messages, eager %d; want strictly fewer",
				r.App, r.LazyMessages, r.EagerMessages))
		}
	}
	if !slices.Equal(apps, lazyApps) {
		v = append(v, fmt.Sprintf("rows %v, want %v", apps, lazyApps))
	}
	if gced == 0 {
		v = append(v, "no workload reclaimed diff records")
	}
	return v
}

func TestLazyTable(t *testing.T) {
	for name, o := range lazySizes {
		t.Run(name, func(t *testing.T) {
			r, err := RunLazy(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range lazyViolations(r) {
				t.Error(v)
			}
			// The per-kind breakdown must survive the JSON path the
			// bench artifacts use, with readable kind names.
			b, err := json.Marshal(map[string]any{"lazy": r})
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"LazyPerKind", "lrc-diff-req", "lrc-lock-grant", "EagerPerKind", "copyset-query"} {
				if !strings.Contains(string(b), want) {
					t.Errorf("lazy table JSON lacks %q", want)
				}
			}
		})
	}
}

func TestLazyRules(t *testing.T) {
	r, err := RunLazy(lazySizes["ci"])
	if err != nil {
		t.Fatal(err)
	}
	const lockheavy = 4
	check := func(rows []LazyRow) []string { return lazyViolations(LazyTable{Rows: rows}) }
	breakEachRule(t, r.Rows, check, map[string]func([]LazyRow) []LazyRow{
		"wrong result":  func(r []LazyRow) []LazyRow { r[0].ChecksOK = false; return r },
		"image differs": func(r []LazyRow) []LazyRow { r[1].ImageMatch = false; return r },
		"lazy not below eager": func(r []LazyRow) []LazyRow {
			r[lockheavy].LazyMessages = r[lockheavy].EagerMessages
			return r
		},
		"dropped row": func(r []LazyRow) []LazyRow { return r[:lockheavy] },
		"no GC": func(r []LazyRow) []LazyRow {
			for i := range r {
				r[i].LazyRecordsGCed = 0
			}
			return r
		},
	})
}
