package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the benchmark must agree with.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode holds BENCHMARK.json and the code's metric and
// workload tables together.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads(fullSizes) {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, have)
	}
	check := func(list string, declared []specMetric, want []string) {
		var got []string
		for _, m := range declared {
			got = append(got, m.Name)
			if u := metricUnits[m.Name]; u != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, code %q", list, m.Name, m.Unit, u)
			}
		}
		sort.Strings(got)
		want = append([]string(nil), want...)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\ncode           %v", list, got, want)
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer())
}

// TestShortRuns runs a short configuration of every workload, untraced
// and traced, and checks that every metric BENCHMARK.json names is
// emitted with its unit, that no run failed, that end-to-end metrics
// are never zero, and that the CPU shares sum to 1.
func TestShortRuns(t *testing.T) {
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, declared := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			res, _, err := run(context.Background(), w.Name, 1, 0.3, trace, true)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct %v, %d of %d runs failed (fail_rate must be 0)",
					w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: metric %s unit %q, declared %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
			if trace == 1 {
				sum := res.Metrics["runtime.unattributed_share"].Value + res.Metrics["bench.cpu_share"].Value
				for _, l := range layers {
					sum += res.Metrics[l+".cpu_share"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: CPU shares sum to %v, want 1", w.Name, sum)
				}
			}
		}
	}
}
