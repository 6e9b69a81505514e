package apps

import (
	"bytes"
	"context"
	"testing"

	"munin"
	"munin/internal/protocol"
)

// Delay-window equivalence: bounded cross-operation batching
// (munin.WithDelayWindow) holds outgoing protocol messages for a short
// window so traffic from adjacent operations coalesces. Because every
// blocking point hard-flushes first, the window must never change what a
// program computes — only how many envelopes carry it.

// TestDelayWindowLockHeavy is the property the wire benchmark gate
// enforces: on the eager lock-heavy workload, a delay window strictly
// reduces transport sends (a release's updates and grant coalesce with
// the releaser's next operation) while the final image stays
// byte-identical.
func TestDelayWindowLockHeavy(t *testing.T) {
	cfg := LockHeavyConfig{Procs: 8, Rounds: 10}
	app, err := NewLockHeavy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := app.Run(context.Background())
	if err != nil {
		t.Fatalf("sim plain: %v", err)
	}
	got, err := app.Run(context.Background(), munin.WithDelayWindow(20000))
	if err != nil {
		t.Fatalf("sim delay-window: %v", err)
	}
	if got.Check != ref.Check {
		t.Errorf("delay-window checksum %08x, want %08x", got.Check, ref.Check)
	}
	refImg, gotImg := ref.FinalImage(), got.FinalImage()
	for addr, want := range refImg {
		if !bytes.Equal(gotImg[addr], want) {
			t.Errorf("object %#x differs between windowed and plain runs", addr)
		}
	}
	if got.Sends >= ref.Sends {
		t.Errorf("delay window sent %d envelopes, plain run %d — want strictly fewer",
			got.Sends, ref.Sends)
	}
}

// TestDelayWindowTransports runs windowed workloads on every transport:
// the defined outputs must match the plain sim reference everywhere, and
// a second window width must be just as correct as the first.
func TestDelayWindowTransports(t *testing.T) {
	lhCfg := LockHeavyConfig{Procs: 8, Rounds: 8}
	lh, err := NewLockHeavy(lhCfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := protocol.WriteShared
	pl, err := NewPipeline(PipelineConfig{Procs: 8, Override: &ws})
	if err != nil {
		t.Fatal(err)
	}
	lhWant := LockHeavyReference(lhCfg)
	plWant := PipelineReference(PipelineConfig{Procs: 8}.withDefaults())
	for _, tr := range append([]string{"sim"}, transportsUnderTest...) {
		for _, window := range []munin.Time{5000, 50000} {
			r, err := lh.Run(context.Background(),
				munin.WithTransport(tr), munin.WithDelayWindow(window))
			if err != nil {
				t.Fatalf("%s lockheavy window %d: %v", tr, window, err)
			}
			if r.Check != lhWant {
				t.Errorf("%s lockheavy window %d: checksum %08x, want %08x",
					tr, window, r.Check, lhWant)
			}
		}
		p, err := pl.Run(context.Background(),
			munin.WithTransport(tr), munin.WithDelayWindow(20000))
		if err != nil {
			t.Fatalf("%s pipeline: %v", tr, err)
		}
		if p.Check != plWant {
			t.Errorf("%s pipeline: checksum %08x, want %08x", tr, p.Check, plWant)
		}
	}
}

// TestDelayWindowLazy checks the window composes with the lazy release
// consistency engine (both reshape traffic; neither may change values).
func TestDelayWindowLazy(t *testing.T) {
	cfg := LockHeavyConfig{Procs: 6}
	app, err := NewLockHeavy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := LockHeavyReference(cfg)
	for _, tr := range []string{"sim", "mux"} {
		r, err := app.Run(context.Background(),
			munin.WithTransport(tr), munin.WithDelayWindow(20000), munin.WithConsistency(munin.LazyRC))
		if err != nil {
			t.Fatalf("%s lazy windowed: %v", tr, err)
		}
		if r.Check != want {
			t.Errorf("%s lazy windowed checksum %08x, want %08x", tr, r.Check, want)
		}
	}
}

// TestDelayWindowValidation: a nonsense window must be rejected before
// the machine is built.
func TestDelayWindowValidation(t *testing.T) {
	app, err := NewLockHeavy(LockHeavyConfig{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(context.Background(), munin.WithDelayWindow(-5)); err == nil {
		t.Fatal("negative delay window was accepted")
	}
}
