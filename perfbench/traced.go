package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"munin"
	"munin/internal/apps"
	"munin/internal/vm"
	"munin/internal/wire"
)

// Shares of --seconds spent in each phase of a traced invocation.
const (
	shareUntraced = 0.35
	shareTraced   = 0.35
	shareWire     = 0.12
	shareDiff     = 0.08
)

// Profiling rates of the traced phase.
const (
	cpuProfileHz   = 250
	memProfileRate = 512
)

// captureLimit bounds the messages kept for replay.
const captureLimit = 400000

// tracedRun is one run with metrics, trace capture and profiling on.
type tracedRun struct {
	run, check time.Duration
	stats      munin.Stats
}

// tracedReport measures the per-layer metrics: untraced runs (the
// trace-overhead baseline and GC figures), then traced runs under the
// CPU, allocation, block and mutex profilers with delivered messages
// captured, then an offline replay of the captured traffic through the
// public wire and diffenc functions.
func tracedReport(ctx context.Context, w workload, seconds float64, seed int64, r *report) (*tally, error) {
	sec := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	ref := w.reference()
	app, err := w.build()
	if err != nil {
		return nil, fmt.Errorf("perfbench: build %s: %w", w.name, err)
	}
	t := &tally{}

	// Phase 1: untraced.
	cpu0 := readCPUClasses()
	plain, err := measureRuns(ctx, w, app, ref, t, sec(shareUntraced), 2, 3, nil)
	if err != nil {
		return nil, err
	}
	cpu1 := readCPUClasses()
	if used := cpu1.used() - cpu0.used(); used > 0 {
		r.set("gc.cpu_share", (cpu1.gc-cpu0.gc)/used)
	} else {
		r.set("gc.cpu_share", 0)
	}
	var plainWall, gcs, elapsed []float64
	for _, o := range plain {
		plainWall = append(plainWall, o.wall.Seconds())
		gcs = append(gcs, float64(o.gcs))
		elapsed = append(elapsed, time.Duration(o.elapsed).Seconds())
	}
	r.setSpread("gc.cycles", gcs)
	if w.sim() {
		r.setSpread("virtual_s", elapsed)
	} else {
		r.notApplicable("mux has no modeled clock", "virtual_s")
	}

	// Phase 2: traced.
	capt := &capture{limit: captureLimit}
	runtime.SetBlockProfileRate(1)
	runtime.SetMutexProfileFraction(1)
	defaultMemRate := runtime.MemProfileRate
	runtime.MemProfileRate = memProfileRate
	mem0, blk0, mtx0 := memSnapshot(), contentionSnapshot(runtime.BlockProfile), contentionSnapshot(runtime.MutexProfile)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var cpuProf bytes.Buffer
	// Raising the rate ahead of StartCPUProfile is the documented way
	// past its fixed 100 Hz; the runtime warns once on stderr.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return nil, fmt.Errorf("perfbench: cpu profile: %w", err)
	}
	var traced []tracedRun
	var sizes map[vm.Addr]int
	deadline := time.Now().Add(sec(shareTraced))
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		capt.keep = len(traced) == 0
		tr, res, err := runTraced(ctx, app, w, capt)
		var o outcome
		if err == nil {
			o = outcome{elapsed: tr.stats.Elapsed, msgs: tr.stats.Messages, bytes: tr.stats.Bytes}
			t0 := time.Now()
			o.check, err = app.Check(res)
			tr.check = time.Since(t0)
		}
		if !t.check(w, ref, o, err) {
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if sizes == nil {
			sizes = map[vm.Addr]int{}
			for a, b := range res.FinalImage() {
				sizes[a] = len(b)
			}
		}
		traced = append(traced, tr)
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	mem1, blk1, mtx1 := memSnapshot(), contentionSnapshot(runtime.BlockProfile), contentionSnapshot(runtime.MutexProfile)
	runtime.SetBlockProfileRate(0)
	runtime.SetMutexProfileFraction(0)
	runtime.MemProfileRate = defaultMemRate
	if len(traced) == 0 {
		return t, nil
	}

	var tracedWall, checks []float64
	msgs := 0
	for _, tr := range traced {
		tracedWall = append(tracedWall, (tr.run + tr.check).Seconds())
		checks = append(checks, tr.check.Seconds())
		msgs += tr.stats.Messages
	}
	r.setSpread("views.check_s", checks)
	if base := median(plainWall); base > 0 {
		r.set("trace.overhead_frac", median(tracedWall)/base-1)
		r.printf("trace.overhead_frac          traced run %.6g s over untraced %.6g s", median(tracedWall), base)
	}

	samples, err := decodeCPUProfile(cpuProf.Bytes())
	if err != nil {
		return nil, err
	}
	reportCPU(r, samples)
	reportAllocs(r, mem1.since(mem0), msgs, m1.Mallocs-m0.Mallocs)
	cps, err := cyclesPerSecond()
	if err != nil {
		return nil, err
	}
	reportWaits(r, blk1.since(blk0), mtx1.since(mtx0), float64(len(traced))*cps)
	reportProtocol(r, w, traced)

	// Phase 3: replay the first traced run's traffic.
	rng := rand.New(rand.NewSource(seed))
	r.printf("replay corpus: %d messages", len(capt.msgs))
	wr, err := replayWire(capt.msgs, rng, sec(shareWire))
	if err != nil {
		t.fail("%v", err)
		return t, nil
	}
	r.setSpread("wire.encode_ns_per_msg", wr.encodeNs)
	r.setSpread("wire.size_ns_per_msg", wr.sizeNs)
	r.setSpread("wire.decode_ns_per_msg", wr.decodeNs)
	r.setSpread("wire.view_decode_ns_per_msg", wr.viewDecodeNs)
	r.set("wire.encode_allocs_per_msg", wr.encodeAllocs)
	r.set("wire.decode_allocs_per_msg", wr.decodeAllocs)
	r.set("wire.bytes_per_msg", wr.bytesPerMsg)

	cases, err := capturedDiffs(capt.msgs, sizes)
	if err != nil {
		t.fail("%v", err)
		return t, nil
	}
	dr, err := replayDiffs(cases, rng, sec(shareDiff))
	if err != nil {
		t.fail("%v", err)
		return t, nil
	}
	r.printf("diff replay: %d diffs", dr.diffs)
	if dr.diffs == 0 {
		r.notApplicable("no update diffs captured", "diffenc.encode_ns_per_kb", "diffenc.decode_ns_per_kb")
	} else {
		r.setSpread("diffenc.encode_ns_per_kb", dr.encodeNsPerKB)
		r.setSpread("diffenc.decode_ns_per_kb", dr.decodeNsPerKB)
	}
	return t, nil
}

// runTraced runs the App once with metrics and trace capture on, timing
// Program.Run alone so that the check (views Snapshot) gets its own
// span. It pins the App's cost model exactly as App.Run does.
func runTraced(ctx context.Context, app *apps.App, w workload, c *capture) (tracedRun, *munin.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	opts := append(append([]munin.RunOption(nil), w.opts...),
		munin.WithMetrics(), munin.WithTrace(c.record), munin.WithModel(app.Model))
	t0 := time.Now()
	res, err := app.Prog.Run(ctx, app.Root, opts...)
	d := time.Since(t0)
	if err != nil {
		return tracedRun{}, nil, err
	}
	return tracedRun{run: d, stats: res.Stats()}, res, nil
}

// reportCPU charges CPU profile samples to layers.
func reportCPU(r *report, samples []cpuSample) {
	byBucket := map[string]int64{}
	var total, sys int64
	for _, s := range samples {
		byBucket[attribute(s.stack)] += s.nanos
		total += s.nanos
		if hasFrame(s.stack, syscallFrames...) {
			sys += s.nanos
		}
	}
	share := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	sum := 0.0
	for _, l := range layers {
		r.set(l+".cpu_share", share(byBucket[l]))
		sum += share(byBucket[l])
	}
	r.set("bench.cpu_share", share(byBucket[bucketBench]))
	r.set("runtime.unattributed_share", share(byBucket[bucketUnattributed]))
	r.set("rt.syscall_share", share(sys))
	sum += share(byBucket[bucketBench]) + share(byBucket[bucketUnattributed])
	r.printf("cpu profile: %d samples, %.3f s; shares sum to %.6f", len(samples), float64(total)/1e9, sum)
	r.printf("cpu shares: %s", formatShares(byBucket, total))
}

func formatShares(by map[string]int64, total int64) string {
	var parts []string
	for _, b := range append(append([]string(nil), layers...), bucketBench, bucketUnattributed) {
		if by[b] > 0 && total > 0 {
			parts = append(parts, fmt.Sprintf("%s=%.3f", b, float64(by[b])/float64(total)))
		}
	}
	return strings.Join(parts, " ")
}

// reportAllocs charges sampled allocations to layers, per message.
func reportAllocs(r *report, recs []profileEntry, msgs int, mallocs uint64) {
	by := map[string]float64{}
	sum := 0.0
	for _, e := range recs {
		n := scaledAllocs(e, memProfileRate)
		by[attribute(pcStack(e.stack))] += n
		sum += n
	}
	per := func(b string) float64 {
		if msgs == 0 {
			return 0
		}
		return by[b] / float64(msgs)
	}
	for _, l := range layers {
		r.set(l+".allocs_per_msg", per(l))
	}
	r.printf("alloc profile: %.0f allocations estimated, %d counted by the runtime, over %d messages", sum, mallocs, msgs)
}

// reportWaits reports rt's blocking per run: monitor waits (sync.Cond
// waits in rt, block profile, summed over every waiting goroutine) and
// lane lock waits (contention on a mux lane's write mutex, mutex
// profile).
func reportWaits(r *report, blk, mtx []profileEntry, cyclesPerRun float64) {
	var cond, lane int64
	for _, e := range blk {
		st := pcStack(e.stack)
		if attribute(st) == "rt" && hasFrame(st, "sync.(*Cond).Wait") {
			cond += e.value
		}
	}
	for _, e := range mtx {
		if hasFrame(pcStack(e.stack), "munin/internal/rt.(*Mux).deliverMux") {
			lane += e.value
		}
	}
	r.set("rt.monitor_wait_s", float64(cond)/cyclesPerRun)
	r.set("rt.lane_lock_wait_s", float64(lane)/cyclesPerRun)
}

// reportProtocol reports the traced runs' protocol counters and
// latency percentiles (medians over runs; every sim run is identical).
func reportProtocol(r *report, w workload, runs []tracedRun) {
	med := func(f func(munin.Stats) float64) float64 {
		v := make([]float64, len(runs))
		for i, tr := range runs {
			v[i] = f(tr.stats)
		}
		return median(v)
	}
	r.set("network.sends", med(func(s munin.Stats) float64 { return float64(s.Sends) }))
	r.set("network.bytes_per_msg", med(func(s munin.Stats) float64 { return float64(s.Bytes) / float64(s.Messages) }))
	kinds := map[string]wire.Kind{}
	for _, k := range wire.Kinds() {
		kinds[k.String()] = k
	}
	for _, name := range msgKinds {
		k := kinds[name]
		r.set("network.msgs."+name, med(func(s munin.Stats) float64 { return float64(s.PerKind[k]) }))
	}

	var absent []string
	lat := func(metric, op string) {
		if med(func(s munin.Stats) float64 { return float64(s.Latencies[op].Count) }) == 0 {
			absent = append(absent, metric+"_p50_ns", metric+"_p99_ns", metric+"_count")
			return
		}
		r.set(metric+"_p50_ns", med(func(s munin.Stats) float64 { return float64(s.Latencies[op].P50) }))
		r.set(metric+"_p99_ns", med(func(s munin.Stats) float64 { return float64(s.Latencies[op].P99) }))
		r.set(metric+"_count", med(func(s munin.Stats) float64 { return float64(s.Latencies[op].Count) }))
	}
	for _, op := range latencyOps {
		lat("core."+op, op)
	}
	lat("lrc.diff_fetch", "diff_fetch")
	r.notApplicable("operation not issued", absent...)

	lrcNames := []string{"lrc.intervals", "lrc.diff_fetches", "lrc.records", "lrc.records_gc_ratio", "lrc.notices_sent", "lrc.notices_gc_ratio"}
	if med(func(s munin.Stats) float64 { return float64(s.LrcIntervals) }) == 0 {
		r.notApplicable("eager engine", lrcNames...)
		return
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("lrc.intervals", med(func(s munin.Stats) float64 { return float64(s.LrcIntervals) }))
	r.set("lrc.diff_fetches", med(func(s munin.Stats) float64 { return float64(s.LrcDiffFetches) }))
	r.set("lrc.records", med(func(s munin.Stats) float64 { return float64(s.LrcRecords) }))
	r.set("lrc.records_gc_ratio", med(func(s munin.Stats) float64 { return ratio(s.LrcRecordsGCed, s.LrcRecords) }))
	r.set("lrc.notices_sent", med(func(s munin.Stats) float64 { return float64(s.LrcNoticesSent) }))
	r.set("lrc.notices_gc_ratio", med(func(s munin.Stats) float64 { return ratio(s.LrcNoticesGCed, s.LrcNoticesSent) }))
}

// cpuClasses are the runtime's CPU-time estimates (runtime/metrics).
type cpuClasses struct{ gc, idle, total float64 }

func (c cpuClasses) used() float64 { return c.total - c.idle }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Float64()}
}

// cyclesPerSecond is the tick rate of block and mutex profile delays,
// which runtime/pprof prints in the text form of those profiles.
func cyclesPerSecond() (float64, error) {
	var b bytes.Buffer
	_ = pprof.Lookup("block").WriteTo(&b, 1) // writes to a bytes.Buffer cannot fail
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "cycles/second="); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				return f, nil
			}
		}
	}
	return 0, fmt.Errorf("perfbench: block profile names no cycles/second rate")
}
