// Phases — the adaptive-program pattern §2.5 designed PhaseChange for:
// "adaptive grid or sparse matrix programs in which the sharing
// relationships are stable for long periods of time between problem
// redistribution phases. The shared matrices can be declared
// producer_consumer ... and PhaseChange can then be invoked whenever the
// sharing relationships change."
//
// A producer writes a block of words each round; a rotating pair of
// consumers reads them. Within a phase the consumer set is fixed, so the
// producer-consumer protocol determines the copyset once and then pushes
// updates. At a redistribution the consumer set rotates — which would
// trip the stable-sharing runtime check — so the program calls
// PhaseChange first, purging the accumulated relationships.
//
// The program also demonstrates ChangeAnnotation: after the final phase
// the data becomes read-only, so any further write would be caught.
//
// Run with:
//
//	go run ./examples/phases -procs 6 -phases 3 -rounds 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"munin"
)

func main() {
	var (
		procs   = flag.Int("procs", 6, fmt.Sprintf("processors (2-%d)", munin.MaxProcessors))
		nphases = flag.Int("phases", 3, "redistribution phases")
		rounds  = flag.Int("rounds", 4, "production rounds per phase")
	)
	flag.Parse()
	if *procs < 2 {
		log.Fatal("phases: need at least 2 processors")
	}

	const words = 2048 // one 8 KB page
	prog := munin.NewProgram(*procs)
	data := munin.Declare[uint32](prog, "data", words, munin.ProducerConsumer)
	sum := munin.Declare[uint32](prog, "sum", *procs, munin.ResultObject)
	bar := prog.CreateBarrier(*procs + 1)

	P, PH, R := *procs, *nphases, *rounds
	var got uint64
	res, err := prog.Run(context.Background(), func(root *munin.Thread) {
		for p := 0; p < P; p++ {
			p := p
			root.Spawn(p, fmt.Sprintf("node%d", p), func(t *munin.Thread) {
				var local uint64
				for ph := 0; ph < PH; ph++ {
					// In phase ph, node (ph mod P) produces and the next
					// two nodes around the ring consume.
					producer := ph % P
					consumer := p == (producer+1)%P || p == (producer+2)%P

					// A producer-consumer relationship must exist before
					// the producer's first flush locks the stable
					// copyset in: each consumer prefetches a copy
					// (PreAcquire, §2.5) before production starts.
					if consumer {
						t.PreAcquire(data.Base())
					}
					bar.Wait(t)

					for r := 0; r < R; r++ {
						if p == producer {
							for i := 0; i < 16; i++ {
								data.Set(t, i, uint32(ph*1000+r*16+i))
							}
						}
						bar.Wait(t) // flush pushes the round's diff to this phase's consumers
						if consumer {
							for i := 0; i < 16; i++ {
								local += uint64(data.Get(t, i))
							}
						}
						bar.Wait(t)
					}

					// Redistribution: the consumer set is about to
					// rotate. Outgoing consumers drop their copies
					// (Invalidate, §2.5) and the producer purges the
					// sharing relationships (PhaseChange) so the
					// stable-sharing check starts afresh.
					if consumer {
						t.Invalidate(data.Base())
					}
					bar.Wait(t)
					if p == producer {
						t.PhaseChange(data.Base())
					}
					bar.Wait(t)
				}
				sum.Set(t, p, uint32(local))
				bar.Wait(t) // result flush carries the sums to the root
			})
		}
		for i := 0; i < PH*(2*R+3)+1; i++ {
			bar.Wait(root)
		}

		// Collect the per-node sums (result objects flushed them here).
		for p := 0; p < P; p++ {
			got += uint64(sum.Get(root, p))
		}

		// The computation is over: the data is now effectively read-only.
		// Switch its protocol so any further write would be caught.
		root.ChangeAnnotation(data.Base(), munin.ReadOnly)
		_ = data.Get(root, 0)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Every phase's two consumers read the same 16 words each round.
	var want uint64
	for ph := 0; ph < PH; ph++ {
		for r := 0; r < R; r++ {
			for i := 0; i < 16; i++ {
				want += 2 * uint64(ph*1000+r*16+i)
			}
		}
	}
	fmt.Printf("consumed total = %d (want %d)\n", got, want)
	if got != want {
		log.Fatal("phases: consumed total disagrees with the expected value")
	}
	st := res.Stats()
	fmt.Printf("%d procs, %d phases x %d rounds: %.3f virtual s, %d messages\n",
		P, PH, R, st.Elapsed.Seconds(), st.Messages)
}
