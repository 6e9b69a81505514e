// Lazy — the second release-consistency engine, selected per run with
// munin.WithConsistency(munin.LazyRC).
//
// The workload is the lazy engine's home turf: a ring of overlapping
// node pairs, each sharing one write-shared page under its own lock, and
// every node entering both of its pairs' critical sections every round.
// Under the paper's eager engine every lock release flushes the page —
// a BROADCAST copyset query (2(P−1) messages) plus an update per stale
// holder — even though only the pair's other member will ever look. The
// lazy engine's release sends nothing at all: write notices ride the
// next lock grant, and the acquirer pulls one diff from one writer. One
// Program, run twice, shows the difference:
//
//	go run ./examples/lazy -procs 8 -rounds 12
//
// The run exits non-zero unless both engines compute the identical
// result AND the lazy engine moves strictly fewer messages.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"munin"
	"munin/internal/apps"
)

func main() {
	var (
		procs  = flag.Int("procs", 8, fmt.Sprintf("processors (2-%d)", munin.MaxProcessors))
		rounds = flag.Int("rounds", 12, "critical-section rounds")
	)
	flag.Parse()

	cfg := apps.LockHeavyConfig{Procs: *procs, Rounds: *rounds}
	app, err := apps.NewLockHeavy(cfg)
	if err != nil {
		log.Fatal("lazy: ", err)
	}
	want := apps.LockHeavyReference(cfg)

	// One Program, both engines — the Program/Run split at work.
	eager, err := app.Run(context.Background())
	if err != nil {
		log.Fatal("lazy: eager run: ", err)
	}
	lazy, err := app.Run(context.Background(), munin.WithConsistency(munin.LazyRC))
	if err != nil {
		log.Fatal("lazy: lazy run: ", err)
	}

	fmt.Printf("lock-heavy ring, %d processors, %d rounds\n\n", *procs, *rounds)
	fmt.Printf("%-22s %12s %12s\n", "", "eager", "lazy")
	fmt.Printf("%-22s %12.3f %12.3f\n", "total time (s)", eager.Elapsed.Seconds(), lazy.Elapsed.Seconds())
	fmt.Printf("%-22s %12d %12d\n", "messages", eager.Messages, lazy.Messages)
	fmt.Printf("%-22s %12d %12d\n", "bytes", eager.Bytes, lazy.Bytes)
	fmt.Printf("%-22s %12s %12d\n", "diff fetches", "-", lazy.LrcDiffFetches)
	fmt.Printf("%-22s %12s %12d\n", "records GC'd", "-", lazy.LrcRecordsGCed)

	ok := true
	for name, r := range map[string]apps.RunResult{"eager": eager, "lazy": lazy} {
		if r.Check != want {
			fmt.Printf("\n%s result MISMATCH: got %08x, want %08x\n", name, r.Check, want)
			ok = false
		}
	}
	if lazy.Messages >= eager.Messages {
		fmt.Printf("\nlazy engine sent %d messages, eager %d — no win\n", lazy.Messages, eager.Messages)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Printf("\nresults identical (%08x); lazy moved %.1fx fewer messages\n",
		want, float64(eager.Messages)/float64(lazy.Messages))
}
