package bench

// Table 6 and the scaling-knee sweep are held against the committed
// munin-bench -json outputs, BENCH_baseline.json and BENCH_scale.json.
// Both run on the deterministic sim transport, where virtual time and
// message counts reproduce exactly, so drift is a behavior change, not
// noise.

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
)

// loadJSON decodes a committed munin-bench -json file into v, a struct
// with one field per table key (e.g. struct{ Table6 Table6 }).
func loadJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// breakEachRule requires check to pass on rows, then applies each
// mutation to a fresh copy of rows and requires exactly one violation:
// each mutation breaks one rule alone, so a case fails if its rule is
// removed.
func breakEachRule[R any](t *testing.T, rows []R, check func([]R) []string, mutations map[string]func([]R) []R) {
	t.Helper()
	if v := check(rows); len(v) != 0 {
		t.Fatalf("unmutated table: %q", v)
	}
	for name, mutate := range mutations {
		if v := check(mutate(slices.Clone(rows))); len(v) != 1 {
			t.Errorf("%s: got %q, want exactly one violation", name, v)
		}
	}
}

// table6Violations lists every way cur differs from the committed Table
// 6: the default (eager, unbatched) path must reproduce every row's
// virtual times and message counts bit for bit, since batching, the
// delay window and observability are all opt-in.
func table6Violations(cur, base Table6) []string {
	var v []string
	if len(cur.Rows) != len(base.Rows) {
		v = append(v, fmt.Sprintf("%d rows, baseline has %d", len(cur.Rows), len(base.Rows)))
	}
	for i := range min(len(cur.Rows), len(base.Rows)) {
		if c, b := cur.Rows[i], base.Rows[i]; !reflect.DeepEqual(c, b) {
			v = append(v, fmt.Sprintf("%s drifted: baseline %d/%d ns %d/%d msgs, current %s %d/%d ns %d/%d msgs",
				b.Name, b.MatMul, b.SOR, b.MatMulMessages, b.SORMessages,
				c.Name, c.MatMul, c.SOR, c.MatMulMessages, c.SORMessages))
		}
	}
	return v
}

// TestTable6Baseline regenerates Table 6 at README's sizes (munin-bench
// -table 6 -n 128 -rows 64 -cols 512 -iters 10) and requires it to equal
// BENCH_baseline.json.
func TestTable6Baseline(t *testing.T) {
	var base struct{ Table6 Table6 }
	loadJSON(t, "../../BENCH_baseline.json", &base)
	cur, err := RunTable6(Table6Opts{AppOpts: AppOpts{N: 128, Rows: 64, Cols: 512, Iters: 10}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range table6Violations(cur, base.Table6) {
		t.Error(v)
	}
}

func TestTable6Rules(t *testing.T) {
	var base struct{ Table6 Table6 }
	loadJSON(t, "../../BENCH_baseline.json", &base)
	check := func(rows []Table6Row) []string { return table6Violations(Table6{Rows: rows}, base.Table6) }
	breakEachRule(t, base.Table6.Rows, check, map[string]func([]Table6Row) []Table6Row{
		"one-ns drift": func(r []Table6Row) []Table6Row { r[1].SOR++; return r },
		"dropped row":  func(r []Table6Row) []Table6Row { return r[:2] },
	})
}

// scaleViolations lists every way cur breaks the scaling-knee
// invariants against the committed sweep base. Every run reproduces its
// reference output. On the lock-heavy workload at 32 nodes and beyond
// the lazy engine sends strictly fewer messages than eager: per-op
// traffic under acquire-directed propagation stays flat while eager's
// release broadcast grows with the machine, so an inversion past the
// prototype's size is a scaling regression (and at least one such row
// must be checked). Every base sweep point is present, with messages per
// op at most 10% above the base's.
func scaleViolations(cur, base ScaleTable) []string {
	type point struct {
		app, engine string
		procs       int
	}
	rows := map[point]ScaleRow{}
	for _, r := range cur.Rows {
		rows[point{r.App, r.Engine, r.Procs}] = r
	}
	var v []string
	gated := 0
	for _, r := range cur.Rows {
		if !r.ChecksOK {
			v = append(v, fmt.Sprintf("%s/%s@%d: wrong result", r.App, r.Engine, r.Procs))
		}
		if r.App == "lockheavy" && r.Engine == "lazy" && r.Procs >= 32 {
			gated++
			if e := rows[point{"lockheavy", "eager", r.Procs}].Messages; r.Messages >= e {
				v = append(v, fmt.Sprintf("lockheavy@%d: lazy %d msgs, eager %d; want strictly fewer", r.Procs, r.Messages, e))
			}
		}
	}
	if gated == 0 {
		v = append(v, "no lockheavy lazy rows at >= 32 nodes")
	}
	for _, b := range base.Rows {
		r, ok := rows[point{b.App, b.Engine, b.Procs}]
		switch {
		case !ok:
			v = append(v, fmt.Sprintf("%s/%s@%d: missing from the sweep", b.App, b.Engine, b.Procs))
		case r.MsgsPerOp > b.MsgsPerOp*1.10:
			v = append(v, fmt.Sprintf("%s/%s@%d: %.1f msgs/op, baseline %.1f", b.App, b.Engine, b.Procs, r.MsgsPerOp, b.MsgsPerOp))
		}
	}
	return v
}

// TestScaleBaseline reruns the CI sweep (munin-bench -table scale -procs
// 8,16,32,64) and holds it to BENCH_scale.json.
func TestScaleBaseline(t *testing.T) {
	var base struct{ Scale ScaleTable }
	loadJSON(t, "../../BENCH_scale.json", &base)
	cur, err := RunScale(ScaleOpts{Procs: []int{8, 16, 32, 64}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range scaleViolations(cur, base.Scale) {
		t.Error(v)
	}
}

func TestScaleRules(t *testing.T) {
	var base struct{ Scale ScaleTable }
	loadJSON(t, "../../BENCH_scale.json", &base)
	// Rows run lockheavy eager then lazy, then pipeline eager, lazy and
	// adaptive, each at 8, 16, 32 and 64 nodes.
	const lhEager32, lhLazy32, pipeEager32 = 2, 6, 10
	check := func(rows []ScaleRow) []string { return scaleViolations(ScaleTable{Rows: rows}, base.Scale) }
	breakEachRule(t, base.Scale.Rows, check, map[string]func([]ScaleRow) []ScaleRow{
		"wrong result": func(r []ScaleRow) []ScaleRow { r[0].ChecksOK = false; return r },
		"lazy not below eager": func(r []ScaleRow) []ScaleRow {
			r[lhLazy32].Messages = r[lhEager32].Messages
			return r
		},
		"11% msgs/op growth": func(r []ScaleRow) []ScaleRow { r[pipeEager32].MsgsPerOp *= 1.11; return r },
		"dropped row":        func(r []ScaleRow) []ScaleRow { return r[:len(r)-1] },
	})
	// A sweep that stops short of 32 nodes, against a baseline that does
	// too, checks no lazy-below-eager row at all.
	small := ScaleTable{Rows: slices.DeleteFunc(slices.Clone(base.Scale.Rows), func(r ScaleRow) bool { return r.Procs >= 32 })}
	if v := scaleViolations(small, small); len(v) != 1 {
		t.Errorf("sweep below 32 nodes: got %q, want exactly one violation", v)
	}
}
