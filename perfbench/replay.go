package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"munin/internal/diffenc"
	"munin/internal/network"
	"munin/internal/vm"
	"munin/internal/wire"
)

// capture keeps the encoded form of every message a traced run
// delivers. The trace callback runs on the transport's delivery path —
// concurrently per destination on mux, where the envelope also borrows
// a pooled receive buffer — so each message is re-encoded with
// wire.AppendTo inside the callback and only those bytes are kept.
type capture struct {
	mu      sync.Mutex
	keep    bool
	limit   int
	scratch []byte
	msgs    [][]byte
}

func (c *capture) record(env network.Envelope) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scratch = wire.AppendTo(c.scratch[:0], env.Msg)
	if c.keep && len(c.msgs) < c.limit {
		c.msgs = append(c.msgs, append([]byte(nil), c.scratch...))
	}
}

// wireReplay is the per-message cost of the public codec functions over
// a captured corpus.
type wireReplay struct {
	encodeNs, sizeNs, decodeNs, viewDecodeNs []float64 // one per timed pass
	encodeAllocs, decodeAllocs, bytesPerMsg  float64
}

// replayWire times wire.AppendTo, Size, Unmarshal and UnmarshalView over
// the corpus, in an order shuffled by rng, for about budget. Before
// timing it checks, for every message, that Size equals the encoded
// length and that both decoders round-trip to the captured bytes; while
// timing it checks every encode against its size again.
func replayWire(corpus [][]byte, rng *rand.Rand, budget time.Duration) (wireReplay, error) {
	var out wireReplay
	if len(corpus) == 0 {
		return out, fmt.Errorf("perfbench: no captured messages to replay")
	}
	order := rng.Perm(len(corpus))
	enc := make([][]byte, len(corpus))
	msgs := make([]wireMsg, len(corpus))
	total := 0
	for i, j := range order {
		enc[i] = corpus[j]
		total += len(enc[i])
		m, err := wire.Unmarshal(enc[i])
		if err != nil {
			return out, fmt.Errorf("perfbench: replay decode message %d: %w", j, err)
		}
		if got := wire.AppendTo(nil, m); !bytes.Equal(got, enc[i]) {
			return out, fmt.Errorf("perfbench: replay: %v does not round-trip through Unmarshal", m.Kind())
		}
		if n := wire.Size(m); n != len(enc[i]) {
			return out, fmt.Errorf("perfbench: replay: %v Size %d, encoded %d bytes", m.Kind(), n, len(enc[i]))
		}
		v, err := wire.UnmarshalView(enc[i])
		if err != nil {
			return out, fmt.Errorf("perfbench: replay view-decode message %d: %w", j, err)
		}
		if got := wire.AppendTo(nil, v); !bytes.Equal(got, enc[i]) {
			return out, fmt.Errorf("perfbench: replay: %v does not round-trip through UnmarshalView", m.Kind())
		}
		msgs[i] = wireMsg{m, len(enc[i])}
	}
	n := float64(len(corpus))
	out.bytesPerMsg = float64(total) / n
	buf := make([]byte, 0, 1<<16)

	passes := []struct {
		ns     *[]float64
		allocs *float64
		run    func() error
	}{
		{&out.encodeNs, &out.encodeAllocs, func() error {
			for _, m := range msgs {
				buf = wire.AppendTo(buf[:0], m.msg)
				if len(buf) != m.size {
					return fmt.Errorf("perfbench: replay: %v encoded %d bytes, Size said %d", m.msg.Kind(), len(buf), m.size)
				}
			}
			return nil
		}},
		{&out.sizeNs, nil, func() error {
			for _, m := range msgs {
				sink += wire.Size(m.msg)
			}
			return nil
		}},
		{&out.decodeNs, &out.decodeAllocs, func() error {
			for _, b := range enc {
				if _, err := wire.Unmarshal(b); err != nil {
					return err
				}
			}
			return nil
		}},
		{&out.viewDecodeNs, nil, func() error {
			for _, b := range enc {
				if _, err := wire.UnmarshalView(b); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	// Round-robin the four functions so drift in machine speed hits them
	// alike; each pass over the whole corpus is one sample.
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || (round < maxReplayRounds && time.Now().Before(deadline)); round++ {
		for _, p := range passes {
			var m0, m1 runtime.MemStats
			if p.allocs != nil && round == 0 {
				runtime.ReadMemStats(&m0)
			}
			t0 := time.Now()
			if err := p.run(); err != nil {
				return out, err
			}
			d := time.Since(t0)
			if p.allocs != nil && round == 0 {
				runtime.ReadMemStats(&m1)
				*p.allocs = float64(m1.Mallocs-m0.Mallocs) / n
			}
			*p.ns = append(*p.ns, float64(d.Nanoseconds())/n)
		}
	}
	return out, nil
}

// maxReplayRounds caps the timed passes of a replay.
const maxReplayRounds = 200

// sink keeps replayed results live, so no call is optimized away.
var sink int

type wireMsg struct {
	msg  wire.Message
	size int
}

// diffCase is one captured update diff, set up for replay: twin and cur
// are an object before and after the writes the diff carries.
type diffCase struct {
	twin, cur, dst, diff []byte
}

// capturedDiffs extracts every update diff from the corpus: eager
// UpdateBatch and lock-grant piggyback entries, and lazy diff-response
// records. sizes gives each object's size (lazy records do not carry
// it); a lazy record whose object is unknown is skipped.
func capturedDiffs(corpus [][]byte, sizes map[vm.Addr]int) ([]diffCase, error) {
	type rawDiff struct {
		size int
		diff []byte
	}
	var raw []rawDiff
	entries := func(es []wire.UpdateEntry) {
		for _, e := range es {
			if len(e.Diff) > 0 {
				raw = append(raw, rawDiff{int(e.Size), e.Diff})
			}
		}
	}
	var visit func(m wire.Message)
	visit = func(m wire.Message) {
		switch m := m.(type) {
		case wire.UpdateBatch:
			entries(m.Entries)
		case wire.LockGrant:
			entries(m.Updates)
		case wire.LrcLockGrant:
			entries(m.Updates)
		case wire.LrcDiffResp:
			for _, s := range m.Sets {
				for _, r := range s.Records {
					if size, ok := sizes[s.Addr]; ok && len(r.Diff) > 0 {
						raw = append(raw, rawDiff{size, r.Diff})
					}
				}
			}
		case wire.Batch:
			for _, r := range m.Msgs {
				visit(r)
			}
		}
	}
	for _, b := range corpus {
		m, err := wire.Unmarshal(b)
		if err != nil {
			return nil, err
		}
		visit(m)
	}
	out := make([]diffCase, 0, len(raw))
	for _, r := range raw {
		c, err := newDiffCase(r.size, r.diff)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// newDiffCase rebuilds an object pair a diff could have come from: cur
// is the diff applied to a background, and twin is cur with exactly the
// words the diff carries complemented. The background is all zeros;
// which words the diff carries is found by applying it to both an
// all-zero and an all-ones object (a carried word changes at least one).
func newDiffCase(size int, diff []byte) (diffCase, error) {
	zero := make([]byte, size)
	ones := bytes.Repeat([]byte{0xff}, size)
	if _, err := diffenc.Decode(zero, diff); err != nil {
		return diffCase{}, fmt.Errorf("perfbench: captured diff: %w", err)
	}
	if _, err := diffenc.Decode(ones, diff); err != nil {
		return diffCase{}, fmt.Errorf("perfbench: captured diff: %w", err)
	}
	cur := zero
	twin := append([]byte(nil), cur...)
	for w := 0; w+diffenc.WordSize <= size; w += diffenc.WordSize {
		z := binary.LittleEndian.Uint32(zero[w:])
		o := binary.LittleEndian.Uint32(ones[w:])
		if z != 0 || o != 0xffffffff {
			binary.LittleEndian.PutUint32(twin[w:], ^z)
		}
	}
	return diffCase{twin: twin, cur: cur, dst: append([]byte(nil), twin...), diff: diff}, nil
}

// diffReplay is the cost of diffenc over the captured diffs: encode per
// KB of object scanned, decode per KB of diff applied.
type diffReplay struct {
	encodeNsPerKB, decodeNsPerKB []float64
	diffs                        int
}

// replayDiffs times diffenc.Encode and Decode over the cases, checking
// that every encode reproduces the captured diff byte for byte and every
// decode turns the twin back into cur.
func replayDiffs(cases []diffCase, rng *rand.Rand, budget time.Duration) (diffReplay, error) {
	out := diffReplay{diffs: len(cases)}
	if len(cases) == 0 {
		return out, nil
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	var objKB, diffKB float64
	for _, c := range cases {
		got, _ := diffenc.Encode(c.twin, c.cur)
		if !bytes.Equal(got, c.diff) {
			return out, fmt.Errorf("perfbench: diff replay: re-encoding a captured diff gave %d bytes, captured %d", len(got), len(c.diff))
		}
		if _, err := diffenc.Decode(c.dst, c.diff); err != nil {
			return out, err
		}
		if !bytes.Equal(c.dst, c.cur) {
			return out, fmt.Errorf("perfbench: diff replay: decode did not reproduce the object")
		}
		objKB += float64(len(c.cur)) / 1024
		diffKB += float64(len(c.diff)) / 1024
	}
	deadline := time.Now().Add(budget)
	for round := 0; round < 3 || (round < maxReplayRounds && time.Now().Before(deadline)); round++ {
		t0 := time.Now()
		for _, c := range cases {
			d, _ := diffenc.Encode(c.twin, c.cur)
			sink += len(d)
		}
		out.encodeNsPerKB = append(out.encodeNsPerKB, float64(time.Since(t0).Nanoseconds())/objKB)
		t0 = time.Now()
		for _, c := range cases {
			if _, err := diffenc.Decode(c.dst, c.diff); err != nil {
				return out, err
			}
		}
		out.decodeNsPerKB = append(out.decodeNsPerKB, float64(time.Since(t0).Nanoseconds())/diffKB)
	}
	return out, nil
}
