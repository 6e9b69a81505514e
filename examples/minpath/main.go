// Minimum path — the paper's own example of a reduction object (§2.3.2):
// "An example of a reduction object is the global minimum in a parallel
// minimum path algorithm, which would be maintained via a Fetch_and_min."
//
// Workers search a layered directed graph for the cheapest source-to-sink
// path. The graph is a shared read_only object; the incumbent best cost
// is a shared reduction object updated with Fetch_and_min; and a shared
// migratory counter protected by a lock hands out work (first-hop
// branches), showing three protocols cooperating in one program.
//
// Run with:
//
//	go run ./examples/minpath -layers 8 -width 12 -procs 6
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
		layers = flag.Int("layers", 8, "graph layers")
		width  = flag.Int("width", 12, "nodes per layer")
		procs  = flag.Int("procs", 6, fmt.Sprintf("processors (1-%d)", munin.MaxProcessors))
	)
	flag.Parse()
	L, W := *layers, *width

	prog := munin.NewProgram(*procs)

	// shared read_only int weight[L][W]: cost of entering node (l, w).
	weight := munin.DeclareMatrix[int32](prog, "weight", L, W, munin.ReadOnly)
	weight.Init(func(l, w int) int32 {
		return int32((l*73+w*139)%50 + 1)
	})

	// shared reduction int best: the global minimum, maintained with
	// Fetch_and_min at its fixed owner.
	best := munin.DeclareVar[int32](prog, "best", munin.Reduction)
	best.Init(1 << 30)

	// shared migratory int nextwork, protected by a lock: the work queue
	// head. The lock grant carries the counter (AssociateDataAndSynch).
	wl := prog.CreateLock()
	next := munin.DeclareVar[uint32](prog, "nextwork", munin.Migratory, munin.WithLock(wl))

	done := prog.CreateBarrier(*procs + 1)

	var parallel int32
	res, err := prog.Run(context.Background(), func(root *munin.Thread) {
		for p := 0; p < *procs; p++ {
			p := p
			root.Spawn(p, fmt.Sprintf("searcher%d", p), func(t *munin.Thread) {
				row := make([]int32, W)
				// dist[w] = cheapest cost to reach node w of the current
				// layer (thread-private working state).
				dist := make([]int64, W)
				for {
					// Take the next first-layer start node.
					wl.Acquire(t)
					start := int(next.Get(t))
					next.Set(t, uint32(start+1))
					wl.Release(t)
					if start >= W {
						break
					}
					// Relax layer by layer from that start node, with a
					// simple branch-and-bound cut against the incumbent.
					weight.ReadRow(t, 0, row)
					for w := range dist {
						dist[w] = 1 << 40
					}
					dist[start] = int64(row[start])
					for l := 1; l < L; l++ {
						weight.ReadRow(t, l, row)
						nd := make([]int64, W)
						incumbent := int64(best.Get(t))
						for w := 0; w < W; w++ {
							bestIn := int64(1) << 40
							for _, prev := range []int{w - 1, w, w + 1} {
								if prev >= 0 && prev < W && dist[prev] < bestIn {
									bestIn = dist[prev]
								}
							}
							nd[w] = bestIn + int64(row[w])
							if nd[w] >= incumbent {
								nd[w] = 1 << 40 // bound: cannot beat the incumbent
							}
						}
						copy(dist, nd)
					}
					for w := 0; w < W; w++ {
						if dist[w] < 1<<40 {
							best.FetchAndMin(t, int32(dist[w]))
						}
					}
				}
				done.Wait(t)
			})
		}
		done.Wait(root)
		parallel = best.Get(root)
		fmt.Printf("parallel minimum path cost: %d\n", parallel)
	})
	if err != nil {
		log.Fatal(err)
	}

	// Sequential check.
	seq := func() int64 {
		w := func(l, j int) int64 { return int64((l*73+j*139)%50 + 1) }
		dist := make([]int64, W)
		for j := range dist {
			dist[j] = w(0, j)
		}
		for l := 1; l < L; l++ {
			nd := make([]int64, W)
			for j := 0; j < W; j++ {
				bestIn := int64(1) << 40
				for _, prev := range []int{j - 1, j, j + 1} {
					if prev >= 0 && prev < W && dist[prev] < bestIn {
						bestIn = dist[prev]
					}
				}
				nd[j] = bestIn + w(l, j)
			}
			dist = nd
		}
		m := dist[0]
		for _, d := range dist {
			if d < m {
				m = d
			}
		}
		return m
	}()
	fmt.Printf("sequential check:           %d\n", seq)
	if int64(parallel) != seq {
		log.Fatal("minpath: parallel cost disagrees with the sequential check")
	}

	st := res.Stats()
	fmt.Printf("%d procs: %.3f virtual s, %d messages\n", *procs, st.Elapsed.Seconds(), st.Messages)
}
