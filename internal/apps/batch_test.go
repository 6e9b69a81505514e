package apps

import (
	"bytes"
	"context"
	"testing"

	"munin"
	"munin/internal/protocol"
)

// Batched-mode equivalence: per-destination batching (munin.WithBatching)
// must change how many transport sends carry the traffic — never what
// the program computes. Each workload runs batched on every transport
// and is compared against the unbatched sim reference; on sim the whole
// final image must match byte for byte, and the batched run must not
// send more envelopes than the unbatched run sent messages. Running
// multi-node on chan/mux, this is also the suite that drives the batch
// dispatch path under `go test -race`.

func TestBatchedEquivalencePipeline(t *testing.T) {
	ws := protocol.WriteShared
	app, err := NewPipeline(PipelineConfig{Procs: 8, Override: &ws})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := app.Run(context.Background())
	if err != nil {
		t.Fatalf("sim unbatched: %v", err)
	}
	for _, tr := range []string{"sim", "chan", "mux"} {
		got, err := app.Run(context.Background(), munin.WithTransport(tr), munin.WithBatching())
		if err != nil {
			t.Fatalf("%s batched: %v", tr, err)
		}
		if got.Check != ref.Check {
			t.Errorf("%s: batched checksum %08x, want %08x", tr, got.Check, ref.Check)
		}
		if got.Sends > got.Messages {
			t.Errorf("%s: %d sends exceed %d messages", tr, got.Sends, got.Messages)
		}
		if tr == "sim" {
			if got.Sends >= ref.Sends {
				t.Errorf("sim: batched %d sends, unbatched %d — want strictly fewer", got.Sends, ref.Sends)
			}
			refImg, gotImg := ref.FinalImage(), got.FinalImage()
			for addr, want := range refImg {
				if !bytes.Equal(gotImg[addr], want) {
					t.Errorf("sim: object %#x differs between batched and unbatched runs", addr)
				}
			}
		}
	}
}

func TestBatchedEquivalenceLockHeavy(t *testing.T) {
	app, err := NewLockHeavy(LockHeavyConfig{Procs: 8, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, cons := range munin.Consistencies() {
		ref, err := app.Run(context.Background(), munin.WithConsistency(cons))
		if err != nil {
			t.Fatalf("sim unbatched (%v): %v", cons, err)
		}
		for _, tr := range []string{"sim", "chan", "mux"} {
			got, err := app.Run(context.Background(),
				munin.WithConsistency(cons), munin.WithTransport(tr), munin.WithBatching())
			if err != nil {
				t.Fatalf("%s batched (%v): %v", tr, cons, err)
			}
			if got.Check != ref.Check {
				t.Errorf("%s (%v): batched checksum %08x, want %08x", tr, cons, got.Check, ref.Check)
			}
			if tr == "sim" && got.Sends > ref.Sends {
				t.Errorf("sim (%v): batching increased sends %d -> %d", cons, ref.Sends, got.Sends)
			}
		}
	}
}

// TestBatchedConventionalInvalidate runs SOR batched on every transport.
// Its name states the intent: drive the invalidate-heavy conventional
// protocol, whose dying-copy update and invalidate acknowledgement share
// an envelope (serveInvalidate). The Program runs under its declared
// producer_consumer annotation, as it always has: conventional SOR on
// chan and mux still fails in the ownership chase (see ROADMAP.md), so
// the conventional override cannot be applied here yet.
func TestBatchedConventionalInvalidate(t *testing.T) {
	app, err := NewSOR(SORConfig{Procs: 4, Rows: 24, Cols: 64, Iters: 3, PhaseBarrier: true})
	if err != nil {
		t.Fatal(err)
	}
	want := SORReference(24, 64, 3)
	for _, tr := range []string{"sim", "chan", "mux"} {
		got, err := app.Run(context.Background(), munin.WithTransport(tr), munin.WithBatching())
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if got.Check != want {
			t.Errorf("%s: checksum %08x, want %08x", tr, got.Check, want)
		}
	}
}
