// Successive Over-Relaxation — the second evaluation program of the paper
// (§4.2). The grid is declared
//
//	shared producer_consumer float matrix[ROWS][COLS];
//
// and the programmer does not tell the runtime how the data is
// partitioned. Workers iterate: compute new averages into a private
// scratch array, copy them back into the shared matrix, and wait at a
// barrier. Munin's producer-consumer protocol discovers the sharing
// relationships during the first iteration (which nodes consume which
// boundary pages), marks each section's interior pages private, and from
// then on ships exactly one batched diff per adjacent-section pair per
// iteration — the communication pattern of the hand-coded version.
//
// Run with:
//
//	go run ./examples/sor -rows 128 -cols 2048 -iters 10 -procs 8
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
		rows  = flag.Int("rows", 128, "grid rows")
		cols  = flag.Int("cols", 2048, "grid columns (2048 = one 8 KB page per row)")
		iters = flag.Int("iters", 10, "relaxation iterations")
		procs = flag.Int("procs", 8, fmt.Sprintf("processors (1-%d)", munin.MaxProcessors))
	)
	flag.Parse()

	p := munin.NewProgram(*procs)
	grid := munin.DeclareMatrix[float32](p, "matrix", *rows, *cols, munin.ProducerConsumer)
	grid.Init(func(i, j int) float32 {
		if i == 0 {
			return 100 // hot top edge
		}
		return 0
	})
	bar := p.CreateBarrier(*procs + 1)

	r, c, its, workers := *rows, *cols, *iters, *procs
	res, err := p.Run(context.Background(), func(root *munin.Thread) {
		for w := 0; w < workers; w++ {
			w := w
			lo, hi := w*r/workers, (w+1)*r/workers
			root.Spawn(w, fmt.Sprintf("worker%d", w), func(t *munin.Thread) {
				up := make([]float32, c)
				mid := make([]float32, c)
				down := make([]float32, c)
				scratch := make([][]float32, hi-lo)
				for i := range scratch {
					scratch[i] = make([]float32, c)
				}
				for it := 0; it < its; it++ {
					for i := lo; i < hi; i++ {
						grid.ReadRow(t, i, mid)
						if i == 0 || i == r-1 {
							copy(scratch[i-lo], mid)
							continue
						}
						grid.ReadRow(t, i-1, up)
						grid.ReadRow(t, i+1, down)
						for j := 1; j < c-1; j++ {
							scratch[i-lo][j] = (up[j] + down[j] + mid[j-1] + mid[j+1]) / 4
						}
						scratch[i-lo][0] = mid[0]
						scratch[i-lo][c-1] = mid[c-1]
					}
					for i := lo; i < hi; i++ {
						grid.WriteRow(t, i, scratch[i-lo])
					}
					bar.Wait(t)
				}
			})
		}
		for it := 0; it < its; it++ {
			bar.Wait(root)
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	// The heat front should have advanced about one row per iteration.
	final, err := grid.SnapshotAny(res)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("temperature at column", *cols/2, "after", its, "iterations:")
	for i := 0; i <= min(its, r-1); i++ {
		fmt.Printf("  row %2d: %8.4f\n", i, final[i**cols+*cols/2])
	}

	// Self-check against a sequential Jacobi sweep of the same stencil.
	ref := make([][]float32, r)
	for i := range ref {
		ref[i] = make([]float32, c)
		if i == 0 {
			for j := range ref[i] {
				ref[i][j] = 100
			}
		}
	}
	for it := 0; it < its; it++ {
		next := make([][]float32, r)
		for i := range next {
			next[i] = append([]float32(nil), ref[i]...)
			if i == 0 || i == r-1 {
				continue
			}
			for j := 1; j < c-1; j++ {
				next[i][j] = (ref[i-1][j] + ref[i+1][j] + ref[i][j-1] + ref[i][j+1]) / 4
			}
		}
		ref = next
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if d := final[i*c+j] - ref[i][j]; d > 1e-4 || d < -1e-4 {
				log.Fatalf("sor: grid[%d][%d] = %g, sequential reference %g", i, j, final[i*c+j], ref[i][j])
			}
		}
	}

	st := res.Stats()
	fmt.Printf("%d procs: %.3f virtual s, %d messages, %d bytes\n",
		*procs, st.Elapsed.Seconds(), st.Messages, st.Bytes)
}
