package main

import (
	"fmt"
	"strings"

	"munin"
	"munin/internal/apps"
)

// workload is one named benchmark configuration: a fixed parallel
// program from internal/apps, run closed-loop (each thread issues its
// next shared access only after the last one completed) on one
// transport.
type workload struct {
	name string
	// transport is munin.TransportSim or munin.TransportMux.
	transport string
	// build constructs the App (declarations plus initial data); it is
	// what setup_s times.
	build func() (*apps.App, error)
	// reference is the sequential checksum every run must reproduce.
	reference func() uint32
	// opts are the per-run options of every run.
	opts []munin.RunOption
}

func (w workload) sim() bool { return w.transport == munin.TransportSim }

// sizes are the run lengths of one configuration: the measured one, or
// the short one the self-test uses.
type sizes struct {
	lockRounds, muxRounds      int
	sorRows, sorCols, sorIters int
}

var (
	fullSizes  = sizes{lockRounds: 50, muxRounds: 300, sorRows: 512, sorCols: 2048, sorIters: 20}
	shortSizes = sizes{lockRounds: 3, muxRounds: 5, sorRows: 64, sorCols: 2048, sorIters: 2}
)

func lockHeavy(name, transport string, procs, rounds int, opts ...munin.RunOption) workload {
	cfg := apps.LockHeavyConfig{Procs: procs, Rounds: rounds}
	return workload{
		name:      name,
		transport: transport,
		build:     func() (*apps.App, error) { return apps.NewLockHeavy(cfg) },
		reference: func() uint32 { return apps.LockHeavyReference(cfg) },
		opts:      append([]munin.RunOption{munin.WithTransport(transport)}, opts...),
	}
}

// workloads returns the benchmark's workloads at the given sizes.
func workloads(s sizes) []workload {
	sor := apps.SORConfig{Procs: 16, Rows: s.sorRows, Cols: s.sorCols, Iters: s.sorIters}
	return []workload{
		lockHeavy("lockheavy-sim", munin.TransportSim, 16, s.lockRounds),
		lockHeavy("lockheavy-sim-lazy", munin.TransportSim, 16, s.lockRounds, munin.WithConsistency(munin.LazyRC)),
		{
			name:      "sor-sim",
			transport: munin.TransportSim,
			build:     func() (*apps.App, error) { return apps.NewSOR(sor) },
			reference: func() uint32 { return apps.SORReference(sor.Rows, sor.Cols, sor.Iters) },
			opts:      []munin.RunOption{munin.WithTransport(munin.TransportSim)},
		},
		lockHeavy("lockheavy-mux", munin.TransportMux, 8, s.muxRounds),
	}
}

func findWorkload(name string, s sizes) (workload, error) {
	var names []string
	for _, w := range workloads(s) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
