package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"munin/internal/nodeset"
	"munin/internal/vm"
)

// ErrCorrupt is returned by Unmarshal for undecodable input.
var ErrCorrupt = errors.New("wire: corrupt message")

// Each message kind lists its fields exactly once, in wire order, in its
// walk method. A codec drives that walk, and its mode decides what the
// field helpers do with each field: append it, count its bytes, read it
// back, or deep-copy a borrowed byte payload. Encode, Size, both decoders
// and Own therefore cannot disagree about a layout.

// mode selects what a codec's field helpers do.
type mode uint8

const (
	encoding mode = iota // append each field to b
	sizing               // add each field's encoded length to n
	owning               // replace each byte payload with a private copy
	decoding             // read each field from b, copying byte payloads
	viewing              // read each field from b, aliasing byte payloads into b
)

type codec struct {
	mode mode
	b    []byte // encoding: the output so far; decoding and viewing: the unread input
	n    int    // sizing: the length so far
	err  error  // decoding and viewing: the first failure
}

func (c *codec) fail() {
	if c.err == nil {
		c.err = ErrCorrupt
	}
}

func (c *codec) u8(v *uint8) {
	switch c.mode {
	case encoding:
		c.b = append(c.b, *v)
	case sizing:
		c.n++
	case decoding, viewing:
		if c.err == nil && len(c.b) >= 1 {
			*v = c.b[0]
			c.b = c.b[1:]
		} else {
			c.fail()
		}
	}
}

func (c *codec) u32(v *uint32) {
	switch c.mode {
	case encoding:
		c.b = binary.LittleEndian.AppendUint32(c.b, *v)
	case sizing:
		c.n += 4
	case decoding, viewing:
		if c.err == nil && len(c.b) >= 4 {
			*v = binary.LittleEndian.Uint32(c.b)
			c.b = c.b[4:]
		} else {
			c.fail()
		}
	}
}

func (c *codec) u64(v *uint64) {
	switch c.mode {
	case encoding:
		c.b = binary.LittleEndian.AppendUint64(c.b, *v)
	case sizing:
		c.n += 8
	case decoding, viewing:
		if c.err == nil && len(c.b) >= 8 {
			*v = binary.LittleEndian.Uint64(c.b)
			c.b = c.b[8:]
		} else {
			c.fail()
		}
	}
}

func (c *codec) uvarint(v *uint64) {
	switch c.mode {
	case encoding:
		c.b = binary.AppendUvarint(c.b, *v)
	case sizing:
		var tmp [binary.MaxVarintLen64]byte
		c.n += binary.PutUvarint(tmp[:], *v)
	case decoding, viewing:
		if c.err != nil {
			return
		}
		x, n := binary.Uvarint(c.b)
		if n <= 0 {
			c.fail()
			return
		}
		*v = x
		c.b = c.b[n:]
	}
}

func (c *codec) addr(v *vm.Addr) { c.u32((*uint32)(v)) }

func (c *codec) boolean(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	*v = b != 0
}

// bytes walks a u32 length and the raw bytes. An empty payload decodes
// as nil.
func (c *codec) bytes(v *[]byte) {
	n := uint32(len(*v))
	c.u32(&n)
	switch c.mode {
	case encoding:
		c.b = append(c.b, *v...)
	case sizing:
		c.n += len(*v)
	case owning:
		*v = append([]byte(nil), *v...)
	case decoding, viewing:
		if c.err != nil || len(c.b) < int(n) {
			c.fail()
			return
		}
		p := c.b[:n:n]
		c.b = c.b[n:]
		if n == 0 {
			return
		}
		if c.mode == decoding {
			p = append([]byte(nil), p...)
		}
		*v = p
	}
}

// payload walks an update or record payload: a flag byte saying whether
// the full image or the diff follows, then that one's bytes.
func (c *codec) payload(full, diff *[]byte) {
	isFull := *full != nil
	c.boolean(&isFull)
	if isFull {
		c.bytes(full)
	} else {
		c.bytes(diff)
	}
}

// list walks a slice's u32 element count and returns the elements for
// the caller to walk. Decoding, it first checks the remaining input can
// hold that many elements of at least elem bytes each, so a corrupt
// count fails instead of allocating; an empty list decodes as nil.
func list[T any](c *codec, v *[]T, elem int) []T {
	n := uint32(len(*v))
	c.u32(&n)
	if c.mode >= decoding && n > 0 {
		if c.err != nil || len(c.b) < elem*int(n) {
			c.fail()
			return nil
		}
		*v = make([]T, n)
	}
	return *v
}

// words walks a list of u32 values (addresses, vector timestamps) with
// one mode decision per list rather than per element: vector timestamps
// grow with the machine, up to 256 entries per lazy message.
func words[T ~uint32](c *codec, v *[]T) {
	w := list(c, v, 4)
	switch c.mode {
	case encoding:
		for _, x := range w {
			c.b = binary.LittleEndian.AppendUint32(c.b, uint32(x))
		}
	case sizing:
		c.n += 4 * len(w)
	case decoding, viewing:
		// list checked that the input holds all len(w) values.
		for i := range w {
			w[i] = T(binary.LittleEndian.Uint32(c.b[4*i:]))
		}
		c.b = c.b[4*len(w):]
	}
}

func (c *codec) updates(v *[]UpdateEntry) {
	for i := range list(c, v, 1) {
		(*v)[i].walk(c)
	}
}

func (c *codec) intervals(v *[]LrcInterval) {
	for i := range list(c, v, 1) {
		(*v)[i].walk(c)
	}
}

// setEscape is the 8-byte marker opening a copyset's extended form.
// The inline form is the set's single bitmap word, which (for any set a
// real machine produces) is distinguishable because a ≤64-node machine
// never fills all 64 bits AND escapes the inline form for the one set
// that would (nodeset.Set.Inline refuses the all-ones word).
const setEscape = ^uint64(0)

// maxWireNode bounds a decoded copyset member: wire node ids are uint8
// everywhere else, so anything past one overflow word's reach is
// corruption, not a bigger machine.
const maxWireNode = 1 << 16

// set walks a copyset: the inline bitmap word for sets confined to
// nodes 0–63 (byte-identical to the original fixed-u64 layout), or the
// escape marker followed by a uvarint member count and uvarint node ids
// for anything larger. The member scan is a manual word walk, not a
// ForEach closure, so the codec never escapes.
func (c *codec) set(s *nodeset.Set) {
	switch c.mode {
	case encoding, sizing:
		lo, inline := s.Inline()
		if !inline {
			lo = setEscape
		}
		c.u64(&lo)
		if inline {
			return
		}
		n := uint64(s.Count())
		c.uvarint(&n)
		for wi := 0; wi < s.Words(); wi++ {
			for w := s.Word(wi); w != 0; w &= w - 1 {
				id := uint64(wi*64 + bits.TrailingZeros64(w))
				c.uvarint(&id)
			}
		}
	case decoding, viewing:
		var w uint64
		c.u64(&w)
		if w != setEscape {
			*s = nodeset.FromWord(w)
			return
		}
		var n uint64
		c.uvarint(&n)
		if c.err != nil || n > uint64(len(c.b)) { // each member id is ≥ 1 byte
			c.fail()
			return
		}
		for ; n > 0; n-- {
			var id uint64
			c.uvarint(&id)
			if c.err != nil || id >= maxWireNode {
				c.fail()
				return
			}
			*s = s.Add(int(id))
		}
	}
}

// rider walks the i'th message of a Batch: a u32 length, then the
// rider's own kind byte and payload.
func (c *codec) rider(i int, p *Message) {
	switch c.mode {
	case encoding:
		if _, nested := (*p).(Batch); nested {
			panic("wire: batch inside a batch")
		}
		n := uint32(Size(*p))
		c.u32(&n)
		c.message(*p)
	case sizing:
		c.n += 4
		c.message(*p)
	case owning:
		*p = c.message(*p)
	case decoding, viewing:
		var n uint32
		c.u32(&n)
		if c.err != nil || n < 1 || len(c.b) < int(n) {
			c.fail()
			return
		}
		sub, err := unmarshal(c.b[:n], c.mode)
		if err != nil {
			c.err = fmt.Errorf("%w: batch rider %d: %v", ErrCorrupt, i, err)
			return
		}
		if _, nested := sub.(Batch); nested {
			c.err = fmt.Errorf("%w: batch inside a batch", ErrCorrupt)
			return
		}
		c.b = c.b[n:]
		*p = sub
	}
}

// kept returns the walked copy m when c's mode produces a message
// (owning, decoding, viewing) and nil otherwise, so the encode and size
// paths never box a copy of the message they walk.
func kept[M Message](c *codec, m *M) Message {
	if c.mode < owning {
		return nil
	}
	return *m
}

// message walks msg's kind byte and fields under c's mode. When owning or
// decoding, it returns the walked copy; decoding starts from the kind's
// zero message (see unmarshal).
func (c *codec) message(msg Message) Message {
	k := uint8(msg.Kind())
	c.u8(&k)
	switch m := msg.(type) {
	case ReadReq:
		m.walk(c)
		return kept(c, &m)
	case ReadReply:
		m.walk(c)
		return kept(c, &m)
	case OwnReq:
		m.walk(c)
		return kept(c, &m)
	case OwnReply:
		m.walk(c)
		return kept(c, &m)
	case Invalidate:
		m.walk(c)
		return kept(c, &m)
	case InvalidateAck:
		m.walk(c)
		return kept(c, &m)
	case MigrateReq:
		m.walk(c)
		return kept(c, &m)
	case MigrateReply:
		m.walk(c)
		return kept(c, &m)
	case UpdateBatch:
		m.walk(c)
		return kept(c, &m)
	case UpdateAck:
		m.walk(c)
		return kept(c, &m)
	case CopysetQuery:
		m.walk(c)
		return kept(c, &m)
	case CopysetReply:
		m.walk(c)
		return kept(c, &m)
	case ReduceReq:
		m.walk(c)
		return kept(c, &m)
	case ReduceReply:
		m.walk(c)
		return kept(c, &m)
	case LockAcq:
		m.walk(c)
		return kept(c, &m)
	case LockSetSucc:
		m.walk(c)
		return kept(c, &m)
	case LockGrant:
		m.walk(c)
		return kept(c, &m)
	case LockOwnNotify:
		m.walk(c)
		return kept(c, &m)
	case BarrierArrive:
		m.walk(c)
		return kept(c, &m)
	case BarrierRelease:
		m.walk(c)
		return kept(c, &m)
	case DirReq:
		m.walk(c)
		return kept(c, &m)
	case DirReply:
		m.walk(c)
		return kept(c, &m)
	case PhaseChange:
		m.walk(c)
		return kept(c, &m)
	case ChangeAnnot:
		m.walk(c)
		return kept(c, &m)
	case CopysetLookup:
		m.walk(c)
		return kept(c, &m)
	case CopysetInfo:
		m.walk(c)
		return kept(c, &m)
	case CopysetNotify:
		m.walk(c)
		return kept(c, &m)
	case OwnNotify:
		m.walk(c)
		return kept(c, &m)
	case AdaptPropose:
		m.walk(c)
		return kept(c, &m)
	case AdaptCommit:
		m.walk(c)
		return kept(c, &m)
	case MPData:
		m.walk(c)
		return kept(c, &m)
	case LrcLockAcq:
		m.walk(c)
		return kept(c, &m)
	case LrcLockSetSucc:
		m.walk(c)
		return kept(c, &m)
	case LrcLockGrant:
		m.walk(c)
		return kept(c, &m)
	case LrcBarrierArrive:
		m.walk(c)
		return kept(c, &m)
	case LrcBarrierRelease:
		m.walk(c)
		return kept(c, &m)
	case LrcDiffReq:
		m.walk(c)
		return kept(c, &m)
	case LrcDiffResp:
		m.walk(c)
		return kept(c, &m)
	case LrcFetchReq:
		m.walk(c)
		return kept(c, &m)
	case LrcFetchResp:
		m.walk(c)
		return kept(c, &m)
	case LrcGC:
		m.walk(c)
		return kept(c, &m)
	case Batch:
		m.walk(c)
		return kept(c, &m)
	}
	panic(fmt.Sprintf("wire: cannot encode %T", msg))
}

// Marshal encodes msg to its wire form (kind byte plus payload). It
// allocates exactly once, sized by Size; the zero-allocation fast path
// is AppendTo with a reused (or pooled, see GetBufN) buffer.
func Marshal(msg Message) []byte {
	return AppendTo(make([]byte, 0, Size(msg)), msg)
}

// AppendTo appends msg's wire form (kind byte plus payload) to buf and
// returns the extended slice, exactly as append does. When buf has
// Size(msg) spare capacity — a pooled buffer in steady state — the
// encode performs no allocation at all.
func AppendTo(buf []byte, msg Message) []byte {
	c := codec{mode: encoding, b: buf}
	c.message(msg)
	return c.b
}

// Size returns the encoded length of msg in bytes (kind byte plus
// payload), computed by the same field walk as AppendTo without
// encoding anything: the simulated network sizes every message it
// carries, and a Marshal per Size would dominate the send path.
func Size(msg Message) int {
	c := codec{mode: sizing}
	c.message(msg)
	return c.n
}

// Unmarshal decodes a message produced by Marshal. The returned message
// owns all of its byte payloads (deep copies); b may be reused freely.
func Unmarshal(b []byte) (Message, error) {
	return unmarshal(b, decoding)
}

// UnmarshalView decodes like Unmarshal but byte payloads (update data,
// diffs, read-reply images, subtree lists) are views into b, not copies —
// the zero-copy receive path. The caller owns b's lifetime: the message
// and anything extracted from it must not outlive b unless re-owned with
// Own or OwnEntry first.
func UnmarshalView(b []byte) (Message, error) {
	return unmarshal(b, viewing)
}

func unmarshal(b []byte, m mode) (Message, error) {
	var kind Kind
	if len(b) > 0 {
		kind = Kind(b[0])
	}
	if int(kind) >= len(kinds) || kinds[kind].zero == nil {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	c := codec{mode: m, b: b}
	msg := c.message(kinds[kind].zero)
	switch {
	case c.err == ErrCorrupt:
		return nil, fmt.Errorf("%w: %v payload", ErrCorrupt, kind)
	case c.err != nil:
		return nil, c.err
	case len(c.b) != 0:
		return nil, fmt.Errorf("%w: %d trailing bytes after %v", ErrCorrupt, len(c.b), kind)
	}
	return msg, nil
}
