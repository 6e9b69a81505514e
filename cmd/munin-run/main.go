// Command munin-run executes one workload on a Munin machine and prints
// its statistics: total time, the root node's user/system split, network
// traffic by message kind, and the result checksum.
//
// The workloads are the four evaluation applications (matmul, sor, tsp,
// lockheavy), sized by their flags and checked against a sequential
// reference, plus the small self-checking demos of the internal/apps
// registry (see -list). Every other flag configures the run, and applies
// to every workload.
//
// -trace prints every protocol message as it is delivered: timestamp,
// source → destination, message kind and size. -chrome and -jsonl record
// structured protocol events (faults, fetches, invalidations, ownership
// transfers, interval closes) with cause links, as Chrome trace_event
// JSON (loads in chrome://tracing and Perfetto) or as JSON lines; the
// file name "-" writes to standard output.
//
// Usage:
//
//	munin-run -list
//	munin-run -app matmul -procs 8
//	munin-run -app sor -procs 16 -rows 256 -iters 20
//	munin-run -app matmul -procs 8 -annotation conventional
//	munin-run -app sor -procs 4 -exact            # improved copyset algorithm
//	munin-run -app tsp -procs 8 -annotation conventional -adaptive
//	                                              # mis-annotated + adaptive recovery
//	munin-run -app sor -procs 8 -profile          # hot-object table + latency percentiles
//	munin-run -app lock -procs 4 -trace           # the wire trace of a lock passing round
//	munin-run -app pipeline -procs 4 -chrome out.json
//	munin-run -app migratory -jsonl -
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"text/tabwriter"

	"munin"
	"munin/internal/apps"
	"munin/internal/network"
	"munin/internal/protocol"
	"munin/internal/wire"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "munin-run:", err)
		os.Exit(1)
	}
}

// evalApps are the evaluation applications: munin-run sizes them from
// its flags and checks their results against a sequential reference.
var evalApps = []struct {
	name, desc string
	minProcs   int
}{
	{"matmul", "Matrix Multiply (§4.1), sized by -n and -single", 1},
	{"sor", "Successive Over-Relaxation (§4.2), sized by -rows, -cols and -iters", 1},
	{"tsp", "branch-and-bound travelling salesman, sized by -cities", 1},
	{"lockheavy", "lock-protected sharing in a ring of pairs, sized by -rounds", 2},
}

// run parses args, executes the selected workload once and reports on
// stdout. It returns an error for bad flags, a failed run, or a checksum
// that differs from the sequential reference under the program's own
// annotations.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("munin-run", flag.ContinueOnError)
	var (
		app         = fs.String("app", "matmul", "workload: matmul, sor, tsp, lockheavy or a registry demo (see -list)")
		list        = fs.Bool("list", false, "list every workload and exit")
		procs       = fs.Int("procs", 8, fmt.Sprintf("processor count (up to %d; -list gives each workload's minimum)", munin.MaxProcessors))
		n           = fs.Int("n", 400, "matrix dimension (matmul)")
		single      = fs.Bool("single", false, "apply the SingleObject optimization (matmul)")
		rows        = fs.Int("rows", 512, "grid rows (sor)")
		cols        = fs.Int("cols", 2048, "grid columns (sor)")
		iters       = fs.Int("iters", 100, "iterations (sor)")
		cities      = fs.Int("cities", 10, "tour length (tsp)")
		rounds      = fs.Int("rounds", 12, "critical-section rounds (lockheavy)")
		annot       = fs.String("annotation", "", "force one annotation on all shared data (conventional, write_shared, ...)")
		exact       = fs.Bool("exact", false, "use the improved home-directed copyset determination")
		adaptive    = fs.Bool("adaptive", false, "enable the adaptive protocol engine (profiles access patterns and switches protocols online; always on for the demos that need it)")
		consistency = fs.String("consistency", "eager", "release-consistency engine: eager (release-time flush) or lazy (acquire-directed, internal/lrc)")
		batch       = fs.Bool("batch", false, "coalesce same-destination protocol messages into batch envelopes (fewer transport sends; see munin.WithBatching)")
		transport   = fs.String("transport", "sim", "transport: sim (deterministic virtual time), chan (concurrent goroutine-per-node) or mux (concurrent over multiplexed loopback sockets, zero-copy receive)")
		profile     = fs.Bool("profile", false, "enable per-run metrics and print the hot-object table and latency percentiles (munin.WithMetrics; charges nothing to the cost model)")
		top         = fs.Int("top", 10, "number of objects in the -profile table")
		trace       = fs.Bool("trace", false, "print one line per delivered protocol message")
		chrome      = fs.String("chrome", "", "write the run's protocol events as Chrome trace_event JSON to this file (- for stdout; loads in Perfetto)")
		jsonl       = fs.String("jsonl", "", "write the run's protocol events as JSON lines to this file (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		listApps(stdout)
		return nil
	}

	cons, err := munin.ParseConsistency(*consistency)
	if err != nil {
		return err
	}
	var override *protocol.Annotation
	if *annot != "" {
		a, err := protocol.Parse(*annot)
		if err != nil {
			return err
		}
		override = &a
	}

	var (
		a      *apps.App
		ref    uint32
		hasRef = true // false for the demos, which check themselves
	)
	opts := []munin.RunOption{munin.WithTransport(*transport), munin.WithConsistency(cons)}
	switch *app {
	case "matmul":
		a, err = apps.NewMatMul(apps.MatMulConfig{Procs: *procs, N: *n, Single: *single})
		ref = apps.MatMulReference(*n)
	case "sor":
		a, err = apps.NewSOR(apps.SORConfig{Procs: *procs, Rows: *rows, Cols: *cols, Iters: *iters, PhaseBarrier: apps.LiveTransport(*transport)})
		ref = apps.SORReference(*rows, *cols, *iters)
	case "tsp":
		a, err = apps.NewTSP(apps.TSPConfig{Procs: *procs, Cities: *cities})
		ref = uint32(apps.TSPReference(*cities))
	case "lockheavy":
		// The override is the regions' declaration, not a run option.
		cfg := apps.LockHeavyConfig{Procs: *procs, Rounds: *rounds, Override: override}
		a, err = apps.NewLockHeavy(cfg)
		ref = apps.LockHeavyReference(cfg)
	default:
		d, derr := apps.DemoByName(*app)
		if derr != nil {
			return derr
		}
		a, err = d.New(apps.DemoConfig{Procs: *procs})
		hasRef = false
		*adaptive = *adaptive || d.Adaptive
	}
	if err != nil {
		return err
	}
	if override != nil && *app != "lockheavy" {
		opts = append(opts, munin.WithOverride(*override))
	}
	if *adaptive {
		opts = append(opts, munin.WithAdaptive())
	}
	if *exact {
		opts = append(opts, munin.WithExactCopyset())
	}
	if *batch {
		opts = append(opts, munin.WithBatching())
	}
	if *profile {
		opts = append(opts, munin.WithMetrics())
	}
	if *trace {
		// Live transports deliver to different nodes concurrently.
		var mu sync.Mutex
		opts = append(opts, munin.WithTrace(func(env network.Envelope) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stdout, "%12.3f ms  n%d -> n%d  %-16v %4d B\n",
				env.DeliveredAt.Milliseconds(), env.Src, env.Dst, env.Msg.Kind(), env.Bytes)
		}))
	}
	var sink *munin.TraceBuffer
	if *chrome != "" || *jsonl != "" {
		sink = &munin.TraceBuffer{}
		opts = append(opts, munin.WithTracing(sink))
	}

	r, err := a.Run(context.Background(), opts...)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "app=%s procs=%d transport=%s consistency=%s\n\n", *app, *procs, *transport, cons)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "total time\t%.3f s\t\n", r.Elapsed.Seconds())
	fmt.Fprintf(tw, "root user time\t%.3f s\t\n", r.RootUser.Seconds())
	fmt.Fprintf(tw, "root system time\t%.3f s\t\n", r.RootSystem.Seconds())
	fmt.Fprintf(tw, "messages\t%d\t\n", r.Messages)
	if *batch {
		fmt.Fprintf(tw, "transport sends\t%d\t\n", r.Sends)
		fmt.Fprintf(tw, "batch envelopes\t%d\t\n", r.BatchEnvelopes)
	}
	fmt.Fprintf(tw, "bytes\t%d\t\n", r.Bytes)
	if *adaptive {
		fmt.Fprintf(tw, "adaptive switches\t%d\t\n", r.AdaptSwitches)
		final := r.FinalAnnotations()
		names := make([]string, 0, len(final))
		for base, annot := range final {
			names = append(names, fmt.Sprintf("final annotation of %s\t%v\t", r.ObjectName(uint64(base)), annot))
		}
		sort.Strings(names)
		for _, line := range names {
			fmt.Fprintln(tw, line)
		}
	}
	if cons == munin.LazyRC {
		fmt.Fprintf(tw, "lrc intervals\t%d\t\n", r.LrcIntervals)
		fmt.Fprintf(tw, "lrc diff fetches\t%d\t\n", r.LrcDiffFetches)
		fmt.Fprintf(tw, "lrc records gced\t%d\t\n", r.LrcRecordsGCed)
	}
	match := "checked by the workload"
	if hasRef {
		match = "MATCH"
		if r.Check != ref {
			match = fmt.Sprintf("MISMATCH (got %08x, sequential reference %08x)", r.Check, ref)
		}
	}
	fmt.Fprintf(tw, "result checksum\t%08x %s\t\n", r.Check, match)
	tw.Flush()

	fmt.Fprintln(stdout, "\nmessages by kind:")
	tw = tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	for _, k := range wire.Kinds() {
		if c := r.PerKind[k]; c > 0 {
			fmt.Fprintf(tw, "  %v\t%d\t\n", k, c)
		}
	}
	tw.Flush()

	if *profile {
		printProfile(stdout, r, *top)
	}
	if sink != nil {
		if n := sink.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "munin-run: event ring overflow, oldest %d events dropped\n", n)
		}
		if err := writeEvents(stdout, *chrome, "Chrome trace_event", sink.WriteChrome, len(sink.Events())); err != nil {
			return err
		}
		if err := writeEvents(stdout, *jsonl, "JSON lines", sink.WriteJSONL, len(sink.Events())); err != nil {
			return err
		}
	}
	// A mismatch under the program's own annotations is a failure;
	// overrides may legitimately perturb chaotic relaxation (the Table 6
	// tests in internal/bench assert each table's shape).
	if hasRef && r.Check != ref && override == nil {
		return fmt.Errorf("result checksum %08x differs from the sequential reference %08x", r.Check, ref)
	}
	return nil
}

// listApps prints every -app name: the evaluation applications, then the
// demo registry.
func listApps(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, e := range evalApps {
		fmt.Fprintf(tw, "%s\t[eager/lazy, ≥%d procs]\t%s\t\n", e.name, e.minProcs, e.desc)
	}
	for _, d := range apps.Demos() {
		engine := "eager/lazy"
		if d.Adaptive {
			engine = "adaptive"
		}
		fmt.Fprintf(tw, "%s\t[%s, ≥%d procs]\t%s\t\n", d.Name, engine, d.MinProcs, d.Desc)
	}
	tw.Flush()
}

// printProfile prints a metrics run's latency percentiles and its top
// hottest objects.
func printProfile(w io.Writer, r apps.RunResult, top int) {
	fmt.Fprintln(w, "\nlatency percentiles (virtual ns):")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  op\tcount\tp50\tp99\tp999\tmax\t\n")
	ops := make([]string, 0, len(r.Latencies))
	for op := range r.Latencies {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		s := r.Latencies[op]
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\t\n", op, s.Count, s.P50, s.P99, s.P999, s.Max)
	}
	tw.Flush()

	prof := r.Profile()
	shown := min(len(prof), top)
	fmt.Fprintf(w, "\nhot objects (top %d of %d):\n", shown, len(prof))
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  object\treads\twrites\tinval\tmigr\tfetch\tsharers\tper-node\t\n")
	for _, o := range prof[:shown] {
		name := r.ObjectName(o.Addr)
		if name == "" {
			name = fmt.Sprintf("%#x", o.Addr)
		}
		fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t\n",
			name, o.Reads, o.Writes, o.Invalidations, o.Migrations, o.Fetches, o.Sharers(), o.PerNode)
	}
	tw.Flush()
}

// writeEvents streams one exporter's output to path ("-" is stdout; ""
// writes nothing).
func writeEvents(stdout io.Writer, path, format string, write func(io.Writer) error, events int) error {
	switch path {
	case "":
		return nil
	case "-":
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%d events written to %s (%s)\n", events, path, format)
	return nil
}
