package apps

import (
	"context"
	"testing"

	"munin"
)

func TestTSPReferenceStable(t *testing.T) {
	// The deterministic instance's optimum; pins the distance matrix and
	// the search against accidental change.
	if got := TSPReference(10); got != 202 {
		t.Errorf("10-city optimum = %d, want 202", got)
	}
	if got := TSPReference(8); got <= 0 {
		t.Errorf("8-city optimum = %d", got)
	}
}

func TestMuninTSPMatchesReference(t *testing.T) {
	for _, cities := range []int{8, 10} {
		ref := TSPReference(cities)
		for _, procs := range []int{1, 3, 8} {
			app, err := NewTSP(TSPConfig{Procs: procs, Cities: cities})
			if err != nil {
				t.Fatalf("c=%d p=%d: %v", cities, procs, err)
			}
			r, err := app.Run(context.Background())
			if err != nil {
				t.Fatalf("c=%d p=%d: %v", cities, procs, err)
			}
			if int64(int32(r.Check)) != ref {
				t.Errorf("c=%d p=%d: found %d, want %d", cities, procs, int32(r.Check), ref)
			}
		}
	}
}

func TestMuninTSPScales(t *testing.T) {
	var elapsed [2]munin.Time
	for i, procs := range []int{1, 8} {
		app, err := NewTSP(TSPConfig{Procs: procs, Cities: 10})
		if err != nil {
			t.Fatal(err)
		}
		r, err := app.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		elapsed[i] = r.Elapsed
	}
	if slow, fast := elapsed[0], elapsed[1]; fast*2 > slow {
		t.Errorf("8 procs (%v) not at least 2x faster than 1 (%v)", fast, slow)
	}
}

func TestMuninTSPBadConfigRejected(t *testing.T) {
	if _, err := NewTSP(TSPConfig{Procs: 0, Cities: 10}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := NewTSP(TSPConfig{Procs: 2, Cities: 20}); err == nil {
		t.Error("oversized instance accepted")
	}
}
