// Package apps holds the two evaluation applications of the paper —
// Matrix Multiply and Successive Over-Relaxation (SOR) — in their Munin
// form, plus the computational kernels and cost-charging helpers shared
// with the hand-coded message-passing versions in internal/mp.
//
// The paper took "special care to ensure that the actual computational
// components of both versions of each program are identical" (§4); here
// both versions call the same kernel functions and charge the same
// virtual compute time per unit of work.
package apps

import (
	"context"
	"hash/fnv"

	"munin"
	"munin/internal/model"
	"munin/internal/protocol"
	"munin/internal/sim"
	"munin/internal/vm"
)

// App is one evaluation program in reusable form: the Program (built
// once), the root thread function, and a post-run check deriving the
// workload's output fingerprint from a Result. One App can run many
// times under different transports, overrides and machine knobs — the
// shape the benches sweep natively.
//
// The cost model is part of the App, not a per-run knob: the root
// function's Compute charges are priced with the build-time model, so
// every run is forced onto that same model (a caller's WithModel would
// otherwise silently blend two models in one run's timing).
type App struct {
	Prog *munin.Program
	Root func(*munin.Thread)
	// Check fingerprints the run's computed output.
	Check func(*munin.Result) (uint32, error)
	// Model is the cost model the Root's compute charges were built
	// with; Run pins every execution to it.
	Model model.CostModel
}

// Run executes the app once with the given per-run options.
func (a *App) Run(ctx context.Context, opts ...munin.RunOption) (RunResult, error) {
	// Pin the machine to the App's cost model, last so it cannot be
	// overridden into a mixed-model run.
	opts = append(append([]munin.RunOption(nil), opts...), munin.WithModel(a.Model))
	res, err := a.Prog.Run(ctx, a.Root, opts...)
	if err != nil {
		return RunResult{}, err
	}
	chk, err := a.Check(res)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Stats: res.Stats(), Check: chk, res: res}, nil
}

// LiveTransport reports whether name selects a real concurrent
// transport (anything but the deterministic simulator) — the condition
// under which SOR needs its phase barrier (see SORConfig.PhaseBarrier).
func LiveTransport(name string) bool {
	return name != "" && name != munin.TransportSim
}

// MatMulConfig shapes a matrix-multiply Program (Tables 3, 4, 6).
// Everything that only configures a run — transport, engine, override,
// copyset algorithm, batching, metrics — is a munin.RunOption passed to
// App.Run.
type MatMulConfig struct {
	// Procs is the number of processors (workers), 1–munin.MaxProcessors.
	Procs int
	// N is the square matrix dimension (the paper uses 400×400).
	N int
	// Model is the cost model (zero = default).
	Model model.CostModel
	// Single applies the SingleObject optimization to the fully-read
	// input matrix (Table 4).
	Single bool
}

// SORConfig shapes an SOR Program (Tables 5, 6).
type SORConfig struct {
	// Procs is the number of processors (workers), 1–munin.MaxProcessors.
	Procs int
	// Rows and Cols give the grid size. With 2048 float32 columns a row
	// is exactly one 8 KB page, the regime the paper's "one message
	// exchange between adjacent sections per iteration" analysis assumes.
	Rows, Cols int
	// Iters is the number of relaxation iterations (the paper runs 100).
	Iters int
	// Model is the cost model (zero = default).
	Model model.CostModel
	// PhaseBarrier inserts a second barrier between the compute and copy
	// phases of every iteration, making the program data-race-free. The
	// paper's single-barrier program relies on every worker's reads
	// completing before any worker's release — deterministically true
	// under the simulator's cost model, but mere chaotic relaxation under
	// real concurrency, so a run on a live transport (see LiveTransport)
	// fails its check without it. The cross-transport equivalence tests
	// also set it on "sim" so the final grid is bit-identical on every
	// transport.
	PhaseBarrier bool
}

// RunResult reports one run's measurements in the paper's terms: the
// run's munin.Stats plus the output fingerprint. The message-passing
// versions in internal/mp fill only Elapsed, Messages, Bytes and Check
// (their root has no DSM runtime, so RootSystem stays zero).
type RunResult struct {
	munin.Stats
	// Check fingerprints the computed output so Munin, message-passing
	// and sequential reference runs can be compared exactly.
	Check uint32

	// res retains the finished run for post-run inspection (nil for the
	// message-passing versions).
	res *munin.Result
}

// FinalImage returns the run's final shared-memory image, keyed by
// object start address (nil for the message-passing versions). The
// cross-transport equivalence tests compare these byte for byte.
func (r RunResult) FinalImage() map[vm.Addr][]byte {
	if r.res == nil {
		return nil
	}
	return r.res.FinalImage()
}

// FinalAnnotations reports, after an adaptive run, the annotation each
// declared variable converged to (nil for the message-passing versions).
func (r RunResult) FinalAnnotations() map[vm.Addr]protocol.Annotation {
	if r.res == nil {
		return nil
	}
	return r.res.FinalAnnotations()
}

// Profile returns the run's hot-object profiles, hottest first (nil
// unless the run used munin.WithMetrics).
func (r RunResult) Profile() []munin.ObjectProfile {
	if r.res == nil {
		return nil
	}
	return r.res.Profile()
}

// ObjectName resolves a profiled object's address to its declared
// variable name (empty for the message-passing versions).
func (r RunResult) ObjectName(addr uint64) string {
	if r.res == nil {
		return ""
	}
	return r.res.ObjectName(addr)
}

// MACRow is the matrix-multiply inner loop: dst[j] += aik * brow[j].
func MACRow(dst []int32, aik int32, brow []int32) {
	for j, b := range brow {
		dst[j] += aik * b
	}
}

// SORStencilRow computes one interior row of the SOR sweep into dst:
// dst[j] = (up[j] + down[j] + mid[j-1] + mid[j+1]) / 4 for interior j;
// boundary columns copy through.
func SORStencilRow(dst, up, mid, down []float32) {
	n := len(dst)
	dst[0] = mid[0]
	dst[n-1] = mid[n-1]
	for j := 1; j < n-1; j++ {
		dst[j] = (up[j] + down[j] + mid[j-1] + mid[j+1]) / 4
	}
}

// MatMulRowCost is the compute charge for one output row of an n-wide
// multiply: n² multiply-accumulates.
func MatMulRowCost(m model.CostModel, n int) sim.Time {
	return sim.Time(n) * sim.Time(n) * m.MatMulOp
}

// SORRowCost is the compute charge for one grid row per iteration:
// cols point updates plus the copy-phase touch of the row's bytes.
func SORRowCost(m model.CostModel, cols int) sim.Time {
	return sim.Time(cols)*m.SORPoint + sim.Time(cols*4)*m.MemTouchPerByte
}

// ChecksumInt32 fingerprints an int32 matrix.
func ChecksumInt32(v []int32) uint32 {
	h := fnv.New32a()
	var b [4]byte
	for _, x := range v {
		b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(b[:])
	}
	return h.Sum32()
}

// ChecksumFloat32Sum fingerprints a float32 grid by summation (bitwise
// checksums are too brittle across summation orders; the grids here are
// produced by identical operation sequences, so exact sums match).
func ChecksumFloat32Sum(v []float32) uint32 {
	var s float64
	for _, x := range v {
		s += float64(x)
	}
	return uint32(int64(s * 16))
}

// MatMulInit gives the input matrices' initial values; all versions use
// the same generator.
func MatMulInit(i, j int) (a, b int32) {
	return int32(i + 2*j), int32(3*i - j)
}

// SORInit gives the grid's initial values: a hot top edge over a varied
// interior. The variation matters: with a uniform interior most of the
// grid never changes value, no diffs flow, and the runs degenerate away
// from the paper's "one message exchange between adjacent sections per
// iteration" regime.
func SORInit(i, j int) float32 {
	if i == 0 {
		return 100
	}
	return float32((i*31 + j*17) % 101)
}

// MatMulReference computes the product sequentially in plain Go and
// returns its checksum (ground truth for both system versions).
func MatMulReference(n int) uint32 {
	a := make([]int32, n*n)
	b := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j], b[i*n+j] = MatMulInit(i, j)
		}
	}
	c := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			MACRow(c[i*n:(i+1)*n], a[i*n+k], b[k*n:(k+1)*n])
		}
	}
	return ChecksumInt32(c)
}

// SORReference runs the sweep sequentially and returns the grid checksum.
func SORReference(rows, cols, iters int) uint32 {
	grid := make([][]float32, rows)
	for i := range grid {
		grid[i] = make([]float32, cols)
		for j := range grid[i] {
			grid[i][j] = SORInit(i, j)
		}
	}
	scratch := make([][]float32, rows)
	for i := range scratch {
		scratch[i] = make([]float32, cols)
	}
	for it := 0; it < iters; it++ {
		for i := 0; i < rows; i++ {
			if i == 0 || i == rows-1 {
				copy(scratch[i], grid[i])
				continue
			}
			SORStencilRow(scratch[i], grid[i-1], grid[i], grid[i+1])
		}
		grid, scratch = scratch, grid
	}
	flat := make([]float32, 0, rows*cols)
	for i := range grid {
		flat = append(flat, grid[i]...)
	}
	return ChecksumFloat32Sum(flat)
}
