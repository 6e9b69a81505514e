package munin

// Typed views over shared memory, implemented once as generics over a
// little-endian element codec: Array[T] (one-dimensional), Matrix[T]
// (row-major two-dimensional) and Var[T] (a scalar). T ranges over the
// 4- and 8-byte numeric element types; the per-type copy-paste the old
// Int32Matrix/Float32Matrix/Words trio needed is gone, and new element
// types (float64 grids, uint32 counters) come for free.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"unsafe"

	"munin/internal/vm"
)

// Elem is the set of element types shared variables can hold: any type
// whose underlying type is int32, uint32, float32 or float64.
type Elem interface {
	~int32 | ~uint32 | ~float32 | ~float64
}

// maxElemSize bounds the element codec's staging buffers.
const maxElemSize = 8

// elemSize returns T's size in bytes (4 or 8).
func elemSize[T Elem]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// nativeLittleEndian reports whether the host stores elements in the
// element codec's byte order, so whole runs of elements move with one
// copy.
var nativeLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// elemBytes views vals as raw bytes, in the host's byte order.
func elemBytes[T Elem](vals []T) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*elemSize[T]())
}

// putElem stores v's native bit pattern little-endian into b. The bit
// pattern of every Elem member is well defined (two's complement, IEEE
// 754), so the encoding is identical on every platform.
func putElem[T Elem](b []byte, v T) {
	if unsafe.Sizeof(v) == 8 {
		binary.LittleEndian.PutUint64(b, *(*uint64)(unsafe.Pointer(&v)))
	} else {
		binary.LittleEndian.PutUint32(b, *(*uint32)(unsafe.Pointer(&v)))
	}
}

// getElem decodes one element from b.
func getElem[T Elem](b []byte) T {
	var v T
	if unsafe.Sizeof(v) == 8 {
		u := binary.LittleEndian.Uint64(b)
		return *(*T)(unsafe.Pointer(&u))
	}
	u := binary.LittleEndian.Uint32(b)
	return *(*T)(unsafe.Pointer(&u))
}

// bits32 and fromBits32 reinterpret a 4-byte element as the runtime's
// 32-bit word. Callers must have checked elemSize[T]() == 4.
func bits32[T Elem](v T) uint32     { return *(*uint32)(unsafe.Pointer(&v)) }
func fromBits32[T Elem](u uint32) T { return *(*T)(unsafe.Pointer(&u)) }

// reduceable reports whether T works with the runtime's Fetch-and-Φ
// operations, which act on 32-bit integer words.
func reduceable[T Elem]() bool {
	switch reflect.TypeOf(*new(T)).Kind() {
	case reflect.Int32, reflect.Uint32:
		return true
	}
	return false
}

// decodeInto fills out from the byte pieces of a faulted-in range. An
// element never straddles pieces in practice (element offsets divide the
// page size), but the carry path keeps the codec correct regardless. On
// little-endian hosts each piece's whole elements are one copy.
func decodeInto[T Elem](pieces [][]byte, out []T) {
	es := elemSize[T]()
	var carry [maxElemSize]byte
	nc, k := 0, 0
	for _, p := range pieces {
		o := 0
		if nc > 0 {
			n := copy(carry[nc:es], p)
			nc += n
			o = n
			if nc < es {
				continue
			}
			out[k] = getElem[T](carry[:])
			k++
			nc = 0
		}
		if nativeLittleEndian {
			n := copy(elemBytes(out[k:]), p[o:o+(len(p)-o)/es*es])
			o += n
			k += n / es
		}
		for ; o+es <= len(p) && k < len(out); o += es {
			out[k] = getElem[T](p[o:])
			k++
		}
		if o < len(p) {
			nc = copy(carry[:], p[o:])
		}
	}
}

// encodeFrom scatters vals into the byte pieces of a faulted-for-write
// range, with the same carry handling and bulk copy as decodeInto.
func encodeFrom[T Elem](pieces [][]byte, vals []T) {
	es := elemSize[T]()
	var carry [maxElemSize]byte
	nc, k := 0, 0
	for _, p := range pieces {
		o := 0
		if nc > 0 {
			n := copy(p, carry[nc:es])
			nc += n
			o = n
			if nc < es {
				continue
			}
			nc = 0
		}
		if nativeLittleEndian {
			n := copy(p[o:o+(len(p)-o)/es*es], elemBytes(vals[k:]))
			o += n
			k += n / es
		}
		for ; o+es <= len(p) && k < len(vals); o += es {
			putElem(p[o:], vals[k])
			k++
		}
		if o < len(p) && k < len(vals) {
			putElem(carry[:], vals[k])
			k++
			nc = copy(p[o:], carry[:])
		}
	}
}

// encodeBytes converts elements to their encoded bytes. On
// little-endian hosts the result aliases vals.
func encodeBytes[T Elem](vals []T) []byte {
	if nativeLittleEndian {
		return elemBytes(vals)
	}
	raw := make([]byte, len(vals)*elemSize[T]())
	encodeFrom([][]byte{raw}, vals)
	return raw
}

// decodeBytes converts a snapshot's raw bytes to elements.
func decodeBytes[T Elem](raw []byte) []T {
	out := make([]T, len(raw)/elemSize[T]())
	decodeInto([][]byte{raw}, out)
	return out
}

// Array is a shared one-dimensional vector of n elements of type T.
// Reduction variables (a global minimum, counters) and flat buffers
// declare it.
type Array[T Elem] struct {
	p        *Program
	name     string
	base     vm.Addr
	n        int
	objects  []vm.Addr
	reduceOK bool
}

// Declare declares a shared n-element array under one annotation. With
// Reduction (and a 32-bit integer T), access it via FetchAndAdd and
// FetchAndMin.
func Declare[T Elem](p *Program, name string, n int, annot Annotation, opts ...DeclOption) *Array[T] {
	base := p.declare(name, n*elemSize[T](), annot, opts...)
	return &Array[T]{
		p: p, name: name, base: base, n: n,
		objects: p.objectStarts(base), reduceOK: reduceable[T](),
	}
}

// Base returns the array's shared address.
func (a *Array[T]) Base() vm.Addr { return a.base }

// Len returns the element count.
func (a *Array[T]) Len() int { return a.n }

// Objects returns the start addresses of the array's runtime objects.
func (a *Array[T]) Objects() []vm.Addr { return a.objects }

// Addr returns the shared address of element i.
func (a *Array[T]) Addr(i int) vm.Addr {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("munin: %s index %d out of range [0,%d)", a.name, i, a.n))
	}
	return a.base + vm.Addr(i*elemSize[T]())
}

// Init sets the initial element values (the sequential user_init phase,
// before the program runs). Fewer values than the length zero-fill the
// rest (a full-size buffer is installed, so re-initializing clears any
// previously set tail); more than the length is rejected.
func (a *Array[T]) Init(vals ...T) {
	if len(vals) > a.n {
		panic(fmt.Sprintf("munin: %d initial values for %q, declared length %d",
			len(vals), a.name, a.n))
	}
	all := make([]T, a.n)
	copy(all, vals)
	a.p.setInit(a.base, a.n*elemSize[T](), a.name, encodeBytes(all))
}

// InitFunc fills every element from f.
func (a *Array[T]) InitFunc(f func(i int) T) {
	all := make([]T, a.n)
	for i := range all {
		all[i] = f(i)
	}
	a.p.setInit(a.base, a.n*elemSize[T](), a.name, encodeBytes(all))
}

// Get loads element i (replicating on demand).
func (a *Array[T]) Get(t *Thread, i int) T {
	addr := a.Addr(i)
	if elemSize[T]() == 4 {
		return fromBits32[T](t.ReadWord(addr))
	}
	var out [1]T
	decodeInto(t.Slice(addr, 8, false), out[:])
	return out[0]
}

// Set stores element i under the variable's protocol.
func (a *Array[T]) Set(t *Thread, i int, v T) {
	addr := a.Addr(i)
	if elemSize[T]() == 4 {
		t.WriteWord(addr, bits32(v))
		return
	}
	encodeFrom(t.Slice(addr, 8, true), []T{v})
}

// Read copies elements [off, off+len(buf)) into buf, faulting pages as
// needed.
func (a *Array[T]) Read(t *Thread, off int, buf []T) {
	if len(buf) == 0 {
		return
	}
	_ = a.Addr(off)
	_ = a.Addr(off + len(buf) - 1)
	decodeInto(t.Slice(a.base+vm.Addr(off*elemSize[T]()), len(buf)*elemSize[T](), false), buf)
}

// Write stores vals at elements [off, off+len(vals)), faulting pages for
// write.
func (a *Array[T]) Write(t *Thread, off int, vals []T) {
	if len(vals) == 0 {
		return
	}
	_ = a.Addr(off)
	_ = a.Addr(off + len(vals) - 1)
	encodeFrom(t.Slice(a.base+vm.Addr(off*elemSize[T]()), len(vals)*elemSize[T](), true), vals)
}

// checkReduce guards the Fetch-and-Φ surface, which the runtime defines
// on 32-bit integer words only.
func (a *Array[T]) checkReduce(op string) {
	if !a.reduceOK {
		panic(fmt.Sprintf("munin: %s on %s: %s needs a 32-bit integer element type",
			op, a.name, op))
	}
}

// reduceTarget bounds-checks element i and resolves the runtime object
// containing it: a page-split array's element beyond the first page
// belongs to a later page-sized object, and the runtime's Fetch-and-Φ
// addresses (object start, in-object word offset).
func (a *Array[T]) reduceTarget(i int) (vm.Addr, int) {
	addr := a.Addr(i)
	obj := a.base
	if len(a.objects) > 1 {
		page := vm.Addr(vm.DefaultPageSize)
		obj = a.base + (addr-a.base)/page*page
	}
	return obj, int(addr-obj) / 4
}

// FetchAndAdd atomically adds delta to element i, returning the old
// value (reduction objects with a 32-bit integer T only).
func (a *Array[T]) FetchAndAdd(t *Thread, i int, delta T) T {
	a.checkReduce("FetchAndAdd")
	obj, off := a.reduceTarget(i)
	return fromBits32[T](t.FetchAndAdd(obj, off, bits32(delta)))
}

// FetchAndMin atomically lowers element i to v if smaller (signed),
// returning the old value (reduction objects with a 32-bit integer T
// only).
func (a *Array[T]) FetchAndMin(t *Thread, i int, v T) T {
	a.checkReduce("FetchAndMin")
	obj, off := a.reduceTarget(i)
	return fromBits32[T](t.FetchAndMin(obj, off, bits32(v)))
}

// Snapshot reads the whole array as seen from node's current copies in
// the given run (home backing included). It fails if some object has no
// data at that node — typically meaning the caller wanted a node that
// never saw it.
func (a *Array[T]) Snapshot(r *Result, node int) ([]T, error) {
	raw, err := r.snapshot(node, a.objects, a.n*elemSize[T]())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.name, err)
	}
	return decodeBytes[T](raw), nil
}

// SnapshotAny reads the whole array, taking each object's bytes from
// whichever node currently holds valid data. After a fully synchronized
// program finishes, every valid copy is consistent, so any holder
// serves; this is what post-run verification needs when the final copies
// live at the workers (e.g. write-shared output under a Table 6
// override).
func (a *Array[T]) SnapshotAny(r *Result) ([]T, error) {
	raw, err := r.snapshotAny(a.objects, a.n*elemSize[T]())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", a.name, err)
	}
	return decodeBytes[T](raw), nil
}

// Matrix is a shared two-dimensional array, row-major. The paper's
// Matrix Multiply declares its inputs and output this way; SOR its grid.
type Matrix[T Elem] struct {
	arr        *Array[T]
	rows, cols int
}

// DeclareMatrix declares a rows×cols shared matrix with the given
// sharing annotation.
func DeclareMatrix[T Elem](p *Program, name string, rows, cols int, annot Annotation, opts ...DeclOption) *Matrix[T] {
	return &Matrix[T]{
		arr:  Declare[T](p, name, rows*cols, annot, opts...),
		rows: rows, cols: cols,
	}
}

// Base returns the matrix's shared address.
func (m *Matrix[T]) Base() vm.Addr { return m.arr.base }

// Rows returns the row count.
func (m *Matrix[T]) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix[T]) Cols() int { return m.cols }

// Objects returns the start addresses of the matrix's runtime objects.
func (m *Matrix[T]) Objects() []vm.Addr { return m.arr.objects }

// RowAddr returns the shared address of row i.
func (m *Matrix[T]) RowAddr(i int) vm.Addr {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("munin: %s row %d out of range", m.arr.name, i))
	}
	return m.arr.base + vm.Addr(i*m.cols*elemSize[T]())
}

// Init fills the matrix's initial contents (the work of the sequential
// user_init routine, performed before the program runs).
func (m *Matrix[T]) Init(f func(i, j int) T) {
	m.arr.InitFunc(func(k int) T { return f(k/m.cols, k%m.cols) })
}

// ReadRow copies row i into buf (len ≥ cols), faulting pages as needed.
func (m *Matrix[T]) ReadRow(t *Thread, i int, buf []T) {
	_ = m.RowAddr(i)
	m.arr.Read(t, i*m.cols, buf[:m.cols])
}

// WriteRow stores vals (len ≥ cols) into row i, faulting pages for write.
func (m *Matrix[T]) WriteRow(t *Thread, i int, vals []T) {
	_ = m.RowAddr(i)
	m.arr.Write(t, i*m.cols, vals[:m.cols])
}

// at bounds-checks both coordinates and returns the flat element index.
func (m *Matrix[T]) at(i, j int) int {
	_ = m.RowAddr(i)
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("munin: %s column %d out of range", m.arr.name, j))
	}
	return i*m.cols + j
}

// Get loads one element.
func (m *Matrix[T]) Get(t *Thread, i, j int) T {
	return m.arr.Get(t, m.at(i, j))
}

// Set stores one element.
func (m *Matrix[T]) Set(t *Thread, i, j int, v T) {
	m.arr.Set(t, m.at(i, j), v)
}

// Snapshot reads the whole matrix as seen from node's current copies in
// the given run (see Array.Snapshot).
func (m *Matrix[T]) Snapshot(r *Result, node int) ([]T, error) {
	return m.arr.Snapshot(r, node)
}

// SnapshotAny reads the whole matrix from any nodes holding valid data
// (see Array.SnapshotAny).
func (m *Matrix[T]) SnapshotAny(r *Result) ([]T, error) {
	return m.arr.SnapshotAny(r)
}

// SnapshotRows reads rows [lo, hi) from node's current copies. The node
// must hold every object overlapping that row range (a worker holds the
// pages covering its own section).
func (m *Matrix[T]) SnapshotRows(r *Result, node, lo, hi int) ([]T, error) {
	raw, err := r.snapshotRange(node, m.arr.objects,
		int(m.RowAddr(lo)-m.arr.base), (hi-lo)*m.cols*elemSize[T]())
	if err != nil {
		return nil, fmt.Errorf("%s rows [%d,%d): %w", m.arr.name, lo, hi, err)
	}
	return decodeBytes[T](raw), nil
}

// Var is a shared scalar of type T.
type Var[T Elem] struct {
	arr *Array[T]
}

// DeclareVar declares a shared scalar under one annotation. With
// Reduction (and a 32-bit integer T), access it via FetchAndAdd and
// FetchAndMin.
func DeclareVar[T Elem](p *Program, name string, annot Annotation, opts ...DeclOption) *Var[T] {
	return &Var[T]{arr: Declare[T](p, name, 1, annot, opts...)}
}

// Base returns the variable's shared address.
func (v *Var[T]) Base() vm.Addr { return v.arr.base }

// Init sets the initial value.
func (v *Var[T]) Init(val T) { v.arr.Init(val) }

// Get loads the value (replicating on demand).
func (v *Var[T]) Get(t *Thread) T { return v.arr.Get(t, 0) }

// Set stores the value under the variable's protocol.
func (v *Var[T]) Set(t *Thread, val T) { v.arr.Set(t, 0, val) }

// FetchAndAdd atomically adds delta, returning the old value (reduction
// objects with a 32-bit integer T only).
func (v *Var[T]) FetchAndAdd(t *Thread, delta T) T { return v.arr.FetchAndAdd(t, 0, delta) }

// FetchAndMin atomically lowers the value to val if smaller (signed),
// returning the old value (reduction objects with a 32-bit integer T
// only).
func (v *Var[T]) FetchAndMin(t *Thread, val T) T { return v.arr.FetchAndMin(t, 0, val) }

// Snapshot reads the value as seen from node's current copy in the
// given run.
func (v *Var[T]) Snapshot(r *Result, node int) (T, error) {
	s, err := v.arr.Snapshot(r, node)
	if err != nil {
		var zero T
		return zero, err
	}
	return s[0], nil
}

// SnapshotAny reads the value from any node holding valid data.
func (v *Var[T]) SnapshotAny(r *Result) (T, error) {
	s, err := v.arr.SnapshotAny(r)
	if err != nil {
		var zero T
		return zero, err
	}
	return s[0], nil
}
