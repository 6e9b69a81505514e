package bench

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"munin"
	"munin/internal/apps"
)

// wireSizes are the sweeps the batching invariants hold on: the CI
// artifact's (munin-bench -table wire -procs 8) and a scaled-down one.
var wireSizes = map[string]WireOpts{
	"ci":    {Procs: 8},
	"small": {Procs: 8, Rounds: 6},
}

// wireRows are the table's (app, engine) rows, in RunWire order.
var wireRows = [][2]string{{"lockheavy", "eager"}, {"lockheavy", "lazy"}, {"pipeline", "eager"}, {"pipeline", "lazy"}}

// wireViolations lists every way t breaks the batching invariants.
// Correctness first: every row's plain, batched and windowed runs match
// the reference checksum and end with byte-identical final memory.
// Batching never increases transport sends or bytes, and strictly
// reduces sends, with envelopes, wherever the design guarantees
// coalescing (see the rows in wire.go's file comment). The delay window
// strictly reduces sends on both pipeline rows and on eager lockheavy,
// the row plain batching cannot improve; lazy lockheavy's GC coalescing
// is timing-sensitive, so there it is held only to the 5% drift bound.
// Envelopes coalesce sends, never messages: the batched sends reconcile
// exactly with messages, riders and envelopes, and message totals stay
// within 5% (cheaper sends shift virtual timing, which can move chase
// and demand-fetch messages; a larger swing means riders were lost or
// duplicated).
func wireViolations(t WireTable) []string {
	mustReduce := map[[2]string]bool{
		{"pipeline", "eager"}: true,
		{"pipeline", "lazy"}:  true,
		{"lockheavy", "lazy"}: true,
	}
	mustReduceWindowed := map[[2]string]bool{
		{"pipeline", "eager"}:  true,
		{"pipeline", "lazy"}:   true,
		{"lockheavy", "eager"}: true,
	}
	var v []string
	var keys [][2]string
	for _, r := range t.Rows {
		key := [2]string{r.App, r.Consistency}
		keys = append(keys, key)
		bad := func(format string, args ...any) {
			v = append(v, r.App+"/"+r.Consistency+": "+fmt.Sprintf(format, args...))
		}
		if !r.ChecksOK {
			bad("wrong result under one of the modes")
		}
		if !r.ImageMatch {
			bad("the modes ended with different final images")
		}
		if r.BatchedSends > r.PlainSends {
			bad("batching increased sends %d -> %d", r.PlainSends, r.BatchedSends)
		}
		if mustReduce[key] && r.BatchedSends >= r.PlainSends {
			bad("batched %d sends, plain %d; want strictly fewer", r.BatchedSends, r.PlainSends)
		}
		if mustReduce[key] && r.Envelopes == 0 {
			bad("no batch envelopes on a row that must coalesce")
		}
		if mustReduceWindowed[key] && r.WindowedSends >= r.PlainSends {
			bad("windowed %d sends, plain %d; want strictly fewer", r.WindowedSends, r.PlainSends)
		}
		if !mustReduceWindowed[key] && drift(r.PlainSends, r.WindowedSends) > 0.05 {
			bad("the delay window moved sends %d -> %d", r.PlainSends, r.WindowedSends)
		}
		if drift(r.PlainMessages, r.BatchedMessages) > 0.05 {
			bad("messages diverged %d -> %d batched", r.PlainMessages, r.BatchedMessages)
		}
		if drift(r.PlainMessages, r.WindowedMessages) > 0.05 {
			bad("messages diverged %d -> %d windowed", r.PlainMessages, r.WindowedMessages)
		}
		if got, want := r.BatchedSends, r.BatchedMessages-r.Riders+r.Envelopes; got != want {
			bad("sends %d do not reconcile with messages %d, riders %d, envelopes %d",
				got, r.BatchedMessages, r.Riders, r.Envelopes)
		}
		if r.BatchedBytes > r.PlainBytes {
			bad("batching increased bytes %d -> %d", r.PlainBytes, r.BatchedBytes)
		}
	}
	if !slices.Equal(keys, wireRows) {
		v = append(v, fmt.Sprintf("rows %v, want %v", keys, wireRows))
	}
	return v
}

// drift is the relative difference of b from a.
func drift(a, b int) float64 {
	if a == 0 {
		return 0
	}
	return math.Abs(float64(b-a)) / float64(a)
}

func TestWireTable(t *testing.T) {
	for name, o := range wireSizes {
		t.Run(name, func(t *testing.T) {
			r, err := RunWire(o)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range wireViolations(r) {
				t.Error(v)
			}
		})
	}
}

func TestWireRules(t *testing.T) {
	r, err := RunWire(wireSizes["ci"])
	if err != nil {
		t.Fatal(err)
	}
	const lhEager, lhLazy, pipeEager = 0, 1, 2
	check := func(rows []WireRow) []string { return wireViolations(WireTable{Rows: rows}) }
	breakEachRule(t, r.Rows, check, map[string]func([]WireRow) []WireRow{
		"wrong result":  func(r []WireRow) []WireRow { r[lhLazy].ChecksOK = false; return r },
		"image differs": func(r []WireRow) []WireRow { r[pipeEager].ImageMatch = false; return r },
		"batching adds a send": func(r []WireRow) []WireRow {
			r[lhEager].BatchedSends++
			r[lhEager].BatchedMessages++
			return r
		},
		"batching does not reduce": func(r []WireRow) []WireRow {
			r[pipeEager].BatchedSends = r[pipeEager].PlainSends
			r[pipeEager].Riders = r[pipeEager].Envelopes
			return r
		},
		"no envelopes": func(r []WireRow) []WireRow {
			r[pipeEager].Riders -= r[pipeEager].Envelopes
			r[pipeEager].Envelopes = 0
			return r
		},
		"window does not reduce": func(r []WireRow) []WireRow {
			r[lhEager].WindowedSends = r[lhEager].PlainSends
			return r
		},
		"window moves sends 6%": func(r []WireRow) []WireRow {
			r[lhLazy].WindowedSends = r[lhLazy].PlainSends * 106 / 100
			return r
		},
		"batched messages drift 6%": func(r []WireRow) []WireRow {
			d := r[pipeEager].PlainMessages*6/100 + 1
			r[pipeEager].BatchedMessages -= d
			r[pipeEager].BatchedSends -= d
			return r
		},
		"windowed messages drift 6%": func(r []WireRow) []WireRow {
			r[pipeEager].WindowedMessages = r[pipeEager].PlainMessages * 106 / 100
			return r
		},
		"sends do not reconcile": func(r []WireRow) []WireRow { r[pipeEager].Riders++; return r },
		"bytes grow":             func(r []WireRow) []WireRow { r[lhLazy].BatchedBytes = r[lhLazy].PlainBytes + 1; return r },
		"dropped row":            func(r []WireRow) []WireRow { return r[:3] },
	})
}

// BenchmarkLockHeavyEndToEnd measures the full lock-heavy workload —
// the wire hot path end to end: encode, size, deliver, dispatch —
// batched and unbatched under each engine. Reported allocations cover
// the whole run, so this tracks codec and transport garbage at the
// system level rather than per message.
func BenchmarkLockHeavyEndToEnd(b *testing.B) {
	app, err := apps.NewLockHeavy(apps.LockHeavyConfig{Procs: 8, Rounds: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		opts []munin.RunOption
	}{
		{"eager", nil},
		{"eager-batched", []munin.RunOption{munin.WithBatching()}},
		{"lazy", []munin.RunOption{munin.WithConsistency(munin.LazyRC)}},
		{"lazy-batched", []munin.RunOption{munin.WithConsistency(munin.LazyRC), munin.WithBatching()}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := app.Run(context.Background(), bc.opts...)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Sends), "sends/run")
				b.ReportMetric(float64(res.Messages), "msgs/run")
			}
		})
	}
}
