package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"munin"
	"munin/internal/apps"
)

// runDeadline bounds one run: a hang becomes a counted failure, not a
// stuck benchmark. Runs take well under a second.
const runDeadline = 20 * time.Second

// outcome is what one run produced.
type outcome struct {
	wall     time.Duration
	elapsed  munin.Time // Stats.Elapsed: virtual on sim, wall on mux
	msgs     int
	bytes    int
	mallocs  uint64
	allocMiB float64
	gcs      uint32
	check    uint32 // the result's checksum
}

// tally counts attempted and failed runs and keeps the first few
// failure reasons.
type tally struct {
	attempted, failed int
	reasons           []string
	// first is the first good sim run, which every later one must
	// reproduce exactly (the simulator is deterministic).
	first *outcome
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check validates one finished run: no error, the reference checksum,
// and on sim the same modeled time and traffic as the first run.
func (t *tally) check(w workload, ref uint32, o outcome, err error) bool {
	t.attempted++
	switch {
	case err != nil:
		t.fail("run %d: %v", t.attempted, err)
		return false
	case o.check != ref:
		t.fail("run %d: checksum %#x, reference %#x", t.attempted, o.check, ref)
		return false
	}
	if w.sim() {
		if t.first == nil {
			t.first = &o
		} else if f := t.first; o.elapsed != f.elapsed || o.msgs != f.msgs || o.bytes != f.bytes {
			t.fail("run %d: not deterministic: %v/%d msgs/%d bytes, first run %v/%d/%d",
				t.attempted, o.elapsed, o.msgs, o.bytes, f.elapsed, f.msgs, f.bytes)
			return false
		}
	}
	return true
}

// runOnce times one App.Run under the run deadline.
func runOnce(ctx context.Context, app *apps.App, opts []munin.RunOption) (outcome, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	// Every run starts from a collected heap, so a run does not pay for
	// garbage the previous one left.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := app.Run(ctx, opts...)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		wall:     wall,
		elapsed:  res.Elapsed,
		msgs:     res.Messages,
		bytes:    res.Bytes,
		mallocs:  m1.Mallocs - m0.Mallocs,
		allocMiB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:      m1.NumGC - m0.NumGC,
		check:    res.Check,
	}, nil
}

// setupTimer times the workload's App construction (declarations plus
// initial data) in batches of builds long enough (≥20 ms) for the
// clock, each from a collected heap. setup_s is the median per-build
// time over the batches, which are spread through the measurement
// window, one before each timed run, so set-up sees the same drift in
// machine speed as the runs do.
type setupTimer struct {
	w       workload
	per     int
	samples []float64
}

// newSetupTimer sizes the batch and returns the first App built.
func newSetupTimer(w workload) (*setupTimer, *apps.App, error) {
	st := &setupTimer{w: w, per: 1}
	for {
		app, d, err := st.batch()
		if err != nil {
			return nil, nil, err
		}
		if d >= 20*time.Millisecond || st.per >= 1<<20 {
			return st, app, nil
		}
		st.per *= 2
	}
}

// batch builds the App per times from a collected heap.
func (st *setupTimer) batch() (*apps.App, time.Duration, error) {
	runtime.GC()
	var app *apps.App
	var err error
	t0 := time.Now()
	for i := 0; i < st.per; i++ {
		if app, err = st.w.build(); err != nil {
			return nil, 0, fmt.Errorf("perfbench: build %s: %w", st.w.name, err)
		}
	}
	return app, time.Since(t0), nil
}

// sample times one batch and records its per-build seconds.
func (st *setupTimer) sample() error {
	_, d, err := st.batch()
	if err == nil {
		st.samples = append(st.samples, d.Seconds()/float64(st.per))
	}
	return err
}

// measureRuns runs the App closed-loop, untraced, until budget has
// passed (at least minRuns attempts), after warm runs that are checked
// but not timed, and returns the runs that passed their checks. before,
// if set, runs ahead of each timed run.
func measureRuns(ctx context.Context, w workload, app *apps.App, ref uint32, t *tally, budget time.Duration, warm, minRuns int, before func() error) ([]outcome, error) {
	for i := 0; i < warm; i++ {
		o, err := runOnce(ctx, app, w.opts)
		t.check(w, ref, o, err)
	}
	var out []outcome
	deadline := time.Now().Add(budget)
	for n := 0; n < minRuns || time.Now().Before(deadline); n++ {
		if ctx.Err() != nil {
			break
		}
		if before != nil {
			if err := before(); err != nil {
				return nil, err
			}
		}
		o, err := runOnce(ctx, app, w.opts)
		if t.check(w, ref, o, err) {
			out = append(out, o)
		}
	}
	return out, nil
}

// endToEndReport measures the untraced metrics.
func endToEndReport(ctx context.Context, w workload, seconds float64, r *report) (*tally, error) {
	ref := w.reference()
	setup, app, err := newSetupTimer(w)
	if err != nil {
		return nil, err
	}
	t := &tally{}
	runs, err := measureRuns(ctx, w, app, ref, t, time.Duration(seconds*float64(time.Second)), 2, 3, setup.sample)
	if err != nil {
		return nil, err
	}
	r.setSpread("setup_s", setup.samples)
	reportRuns(r, runs)
	return t, nil
}

// reportRuns records run_s and the per-run traffic and allocation
// figures of the untraced runs.
func reportRuns(r *report, runs []outcome) {
	col := func(f func(outcome) float64) []float64 {
		v := make([]float64, len(runs))
		for i, o := range runs {
			v[i] = f(o)
		}
		return v
	}
	r.setSpread("run_s", col(func(o outcome) float64 { return o.wall.Seconds() }))
	r.setSpread("messages", col(func(o outcome) float64 { return float64(o.msgs) }))
	r.setSpread("wire_bytes", col(func(o outcome) float64 { return float64(o.bytes) }))
	r.setSpread("allocs", col(func(o outcome) float64 { return float64(o.mallocs) }))
	r.setSpread("alloc_mb", col(func(o outcome) float64 { return o.allocMiB }))
}
