// Command perfbench is Munin's wall-clock benchmark. It runs one named
// workload — a fixed parallel program from internal/apps on the
// simulator or the mux transport — for a given number of seconds and
// prints its metrics, checking every run's result against the
// sequential reference.
//
// Untraced (-trace 0), it reports the end-to-end metrics: set-up time,
// run time, traffic and allocations per run. Traced (-trace 1), it
// reports the per-layer metrics from outside the program: CPU,
// allocation, block and mutex profiles of the benchmark process charged
// to the innermost munin package on each stack, latency histograms and
// protocol counters from the run's Stats, and the cost of the public
// wire and diffenc functions replayed over the run's captured traffic.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench -workload lockheavy-sim -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md explains the
// workloads and what each metric is meant to show.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed for the benchmark's own random choices")
	seconds := flag.Float64("seconds", 10, "measurement length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.Parse()

	res, r, err := run(context.Background(), *name, *seed, *seconds, *trace, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range r.lines {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run executes one benchmark invocation; short selects the self-test's
// run lengths.
func run(ctx context.Context, name string, seed int64, seconds float64, trace int, short bool) (result, *report, error) {
	s := fullSizes
	if short {
		s = shortSizes
	}
	w, err := findWorkload(name, s)
	if err != nil {
		return result{}, nil, err
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return result{}, nil, fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	r := newReport()
	r.printf("workload %s transport %s seed %d seconds %g trace %d GOMAXPROCS %d", w.name, w.transport, seed, seconds, trace, runtime.GOMAXPROCS(0))
	var t *tally
	if trace == 0 {
		t, err = endToEndReport(ctx, w, seconds, r)
	} else {
		t, err = tracedReport(ctx, w, seconds, seed, r)
	}
	if err != nil {
		return result{}, nil, err
	}
	want := endToEnd
	if trace == 1 {
		want = perLayer()
	}
	var missing []string
	for _, n := range want {
		if _, ok := r.metrics[n]; !ok {
			missing = append(missing, n)
			r.set(n, 0)
		}
	}
	if len(missing) > 0 {
		// Only a run that failed leaves metrics unmeasured.
		r.printf("not measured (runs failed): %s", strings.Join(missing, " "))
	}
	metrics := make(map[string]metric, len(want))
	for _, n := range want {
		metrics[n] = r.metrics[n]
	}
	r.printf("fail_rate %d/%d", t.failed, t.attempted)
	for _, why := range t.reasons {
		r.printf("failure: %s", why)
	}
	return result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: max(t.attempted, 1),
		Failed:    t.failed,
		Metrics:   metrics,
	}, r, nil
}
