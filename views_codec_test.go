package munin

import (
	"math"
	"math/rand"
	"testing"
)

// splitPieces cuts raw into pieces at random byte offsets, so elements
// straddle piece boundaries, and sprinkles in empty pieces.
func splitPieces(r *rand.Rand, raw []byte) [][]byte {
	var pieces [][]byte
	for len(raw) > 0 {
		if r.Intn(8) == 0 {
			pieces = append(pieces, raw[:0])
		}
		n := 1 + r.Intn(min(len(raw), 3*maxElemSize+1))
		if r.Intn(4) == 0 {
			n = len(raw) // a long run
		}
		pieces = append(pieces, raw[:n])
		raw = raw[n:]
	}
	return pieces
}

// checkCodec compares decodeInto, encodeFrom, encodeBytes and
// decodeBytes, on the bulk-copy path (little-endian hosts) and on the
// per-element path, against putElem over the same values laid out flat.
func checkCodec[T Elem](t *testing.T, mk func(r *rand.Rand) T) {
	t.Helper()
	es := elemSize[T]()
	r := rand.New(rand.NewSource(int64(es)))
	defer func(native bool) { nativeLittleEndian = native }(nativeLittleEndian)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(40)
		vals := make([]T, n)
		for i := range vals {
			vals[i] = mk(r)
		}
		flat := make([]byte, n*es)
		for i, v := range vals {
			putElem(flat[i*es:], v)
		}
		for _, native := range []bool{true, false} {
			nativeLittleEndian = native
			src := append([]byte(nil), flat...)
			out := make([]T, n)
			decodeInto(splitPieces(r, src), out)
			for i := range out {
				// Compared as bit patterns, so NaN payloads count too.
				var got [maxElemSize]byte
				putElem(got[:], out[i])
				if want := flat[i*es : (i+1)*es]; string(got[:es]) != string(want) {
					t.Fatalf("trial %d native=%v: decodeInto[%d] = %x, want %x", trial, native, i, got[:es], want)
				}
			}
			dst := make([]byte, n*es)
			encodeFrom(splitPieces(r, dst), vals)
			if string(dst) != string(flat) {
				t.Fatalf("trial %d native=%v: encodeFrom = %x, want %x", trial, native, dst, flat)
			}
			if got := encodeBytes(vals); string(got) != string(flat) {
				t.Fatalf("trial %d native=%v: encodeBytes = %x, want %x", trial, native, got, flat)
			}
			if got := encodeBytes(decodeBytes[T](flat)); string(got) != string(flat) {
				t.Fatalf("trial %d native=%v: decodeBytes round trip = %x, want %x", trial, native, got, flat)
			}
		}
	}
}

// TestViewCodecProperty: for all four Elem kinds, with pieces split at odd
// byte offsets, the bulk-copy and per-element codecs give the same bytes
// and elements as putElem and getElem one element at a time.
func TestViewCodecProperty(t *testing.T) {
	t.Run("int32", func(t *testing.T) {
		checkCodec(t, func(r *rand.Rand) int32 { return int32(r.Uint32()) })
	})
	t.Run("uint32", func(t *testing.T) {
		checkCodec(t, func(r *rand.Rand) uint32 { return r.Uint32() })
	})
	t.Run("float32", func(t *testing.T) {
		checkCodec(t, func(r *rand.Rand) float32 { return math.Float32frombits(r.Uint32()) })
	})
	t.Run("float64", func(t *testing.T) {
		checkCodec(t, func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) })
	})
}
