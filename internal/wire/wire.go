// Package wire defines the messages Munin nodes exchange and their binary
// encoding.
//
// The prototype ran over V-kernel messages on a 10 Mbps Ethernet; the
// network model charges wire time per encoded byte, so every message here
// has an honest binary form (encoding/binary, little-endian). Each kind
// states its field layout once, in its walk method; one codec walks it
// to encode (AppendTo, allocation-free into a caller-owned or pooled
// buffer, see GetBufN/PutBuf), to size (Size, without encoding), to
// decode (Unmarshal copies, UnmarshalView borrows) and to re-own a
// borrowed message (Own). Marshal is the allocating encode wrapper; the
// simulated network uses the encoded size for timing and delivers the
// decoded form.
//
// Batch is the per-destination coalescing envelope: everything one
// protocol operation sends to the same node rides one transport send.
// See DESIGN.md "Wire protocol" for the full field-layout reference.
package wire

import (
	"fmt"

	"munin/internal/nodeset"
	"munin/internal/vm"
)

// Kind identifies a message type on the wire.
type Kind uint8

// Message kinds. The data-consistency kinds implement the directory-based
// protocol of §3; the lock/barrier kinds implement the distributed
// queue-based synchronization of §3.4; MPData carries the hand-coded
// message-passing baselines' payloads.
const (
	KindInvalid Kind = iota
	KindReadReq
	KindReadReply
	KindOwnReq
	KindOwnReply
	KindInvalidate
	KindInvalidateAck
	KindMigrateReq
	KindMigrateReply
	KindUpdateBatch
	KindUpdateAck
	KindCopysetQuery
	KindCopysetReply
	KindReduceReq
	KindReduceReply
	KindLockAcq
	KindLockSetSucc
	KindLockGrant
	KindBarrierArrive
	KindBarrierRelease
	KindDirReq
	KindDirReply
	KindPhaseChange
	KindChangeAnnot
	KindCopysetLookup
	KindCopysetInfo
	KindCopysetNotify
	KindOwnNotify
	KindAdaptPropose
	KindAdaptCommit
	KindMPData
	KindLockOwnNotify
	KindLrcLockAcq
	KindLrcLockSetSucc
	KindLrcLockGrant
	KindLrcBarrierArrive
	KindLrcBarrierRelease
	KindLrcDiffReq
	KindLrcDiffResp
	KindLrcFetchReq
	KindLrcFetchResp
	KindLrcGC
	KindBatch
	numKinds
)

// kinds gives each kind its trace name and the zero message unmarshal
// decodes into.
var kinds = [numKinds]struct {
	name string
	zero Message
}{
	KindInvalid:           {"invalid", nil},
	KindReadReq:           {"read-req", ReadReq{}},
	KindReadReply:         {"read-reply", ReadReply{}},
	KindOwnReq:            {"own-req", OwnReq{}},
	KindOwnReply:          {"own-reply", OwnReply{}},
	KindInvalidate:        {"invalidate", Invalidate{}},
	KindInvalidateAck:     {"invalidate-ack", InvalidateAck{}},
	KindMigrateReq:        {"migrate-req", MigrateReq{}},
	KindMigrateReply:      {"migrate-reply", MigrateReply{}},
	KindUpdateBatch:       {"update-batch", UpdateBatch{}},
	KindUpdateAck:         {"update-ack", UpdateAck{}},
	KindCopysetQuery:      {"copyset-query", CopysetQuery{}},
	KindCopysetReply:      {"copyset-reply", CopysetReply{}},
	KindReduceReq:         {"reduce-req", ReduceReq{}},
	KindReduceReply:       {"reduce-reply", ReduceReply{}},
	KindLockAcq:           {"lock-acq", LockAcq{}},
	KindLockSetSucc:       {"lock-set-succ", LockSetSucc{}},
	KindLockGrant:         {"lock-grant", LockGrant{}},
	KindBarrierArrive:     {"barrier-arrive", BarrierArrive{}},
	KindBarrierRelease:    {"barrier-release", BarrierRelease{}},
	KindDirReq:            {"dir-req", DirReq{}},
	KindDirReply:          {"dir-reply", DirReply{}},
	KindPhaseChange:       {"phase-change", PhaseChange{}},
	KindChangeAnnot:       {"change-annot", ChangeAnnot{}},
	KindCopysetLookup:     {"copyset-lookup", CopysetLookup{}},
	KindCopysetInfo:       {"copyset-info", CopysetInfo{}},
	KindCopysetNotify:     {"copyset-notify", CopysetNotify{}},
	KindOwnNotify:         {"own-notify", OwnNotify{}},
	KindAdaptPropose:      {"adapt-propose", AdaptPropose{}},
	KindAdaptCommit:       {"adapt-commit", AdaptCommit{}},
	KindMPData:            {"mp-data", MPData{}},
	KindLockOwnNotify:     {"lock-own-notify", LockOwnNotify{}},
	KindLrcLockAcq:        {"lrc-lock-acq", LrcLockAcq{}},
	KindLrcLockSetSucc:    {"lrc-lock-set-succ", LrcLockSetSucc{}},
	KindLrcLockGrant:      {"lrc-lock-grant", LrcLockGrant{}},
	KindLrcBarrierArrive:  {"lrc-barrier-arrive", LrcBarrierArrive{}},
	KindLrcBarrierRelease: {"lrc-barrier-release", LrcBarrierRelease{}},
	KindLrcDiffReq:        {"lrc-diff-req", LrcDiffReq{}},
	KindLrcDiffResp:       {"lrc-diff-resp", LrcDiffResp{}},
	KindLrcFetchReq:       {"lrc-fetch-req", LrcFetchReq{}},
	KindLrcFetchResp:      {"lrc-fetch-resp", LrcFetchResp{}},
	KindLrcGC:             {"lrc-gc", LrcGC{}},
	KindBatch:             {"batch", Batch{}},
}

// String returns the kind's trace name.
func (k Kind) String() string {
	if int(k) < len(kinds) {
		return kinds[k].name
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Kinds returns every valid kind, for statistics tables.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := KindReadReq; k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// Message is any Munin protocol message.
type Message interface {
	Kind() Kind
}

// UpdateEntry is one object's pending changes inside an UpdateBatch or a
// LockGrant piggyback. Exactly one of Diff or Full is set: Diff carries a
// diffenc encoding (multiple-writer objects); Full carries the whole
// object (no twin).
type UpdateEntry struct {
	Addr vm.Addr
	Size uint32 // object size in bytes
	Diff []byte
	Full []byte
}

func (u *UpdateEntry) walk(c *codec) {
	c.addr(&u.Addr)
	c.u32(&u.Size)
	c.payload(&u.Full, &u.Diff)
}

// ReduceOp identifies a Fetch-and-Φ operation on a reduction object.
type ReduceOp uint8

// Supported Fetch-and-Φ operations (§2.3.2's reduction annotation).
const (
	ReduceAdd ReduceOp = iota
	ReduceMin
	ReduceMax
	ReduceOr
	ReduceAnd
)

// String names the reduction operation.
func (o ReduceOp) String() string {
	switch o {
	case ReduceAdd:
		return "add"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	case ReduceOr:
		return "or"
	case ReduceAnd:
		return "and"
	default:
		return fmt.Sprintf("ReduceOp(%d)", uint8(o))
	}
}

// --- Data consistency messages ---

// ReadReq asks the object's owner for a read copy. Prefetch marks
// PreAcquire traffic (same protocol, distinguishable in traces).
type ReadReq struct {
	Addr      vm.Addr
	Requester uint8
	Prefetch  bool
}

func (m *ReadReq) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Requester)
	c.boolean(&m.Prefetch)
}

// ReadReply carries a read copy of the object and the identity of the
// owner (to update the requester's probable-owner hint).
type ReadReply struct {
	Addr  vm.Addr
	Owner uint8
	Data  []byte
}

func (m *ReadReply) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Owner)
	c.bytes(&m.Data)
}

// OwnReq asks for ownership plus data (conventional write miss).
type OwnReq struct {
	Addr      vm.Addr
	Requester uint8
}

func (m *OwnReq) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Requester)
}

// OwnReply grants ownership: object data plus the copyset the new owner
// must invalidate. Copysets travel in a two-form encoding (see
// codec.set): the single-word inline form for sets confined to nodes
// 0–63 — byte-identical to the codec's original fixed u64 layout — and
// an escape-marked varint node list past that.
type OwnReply struct {
	Addr    vm.Addr
	Copyset nodeset.Set
	Data    []byte
}

func (m *OwnReply) walk(c *codec) {
	c.addr(&m.Addr)
	c.set(&m.Copyset)
	c.bytes(&m.Data)
}

// Invalidate tells a node to drop its copy; NewOwner updates the
// probable-owner hint.
type Invalidate struct {
	Addr     vm.Addr
	NewOwner uint8
}

func (m *Invalidate) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.NewOwner)
}

// InvalidateAck acknowledges an Invalidate (the write-miss thread blocks
// until it holds the only copy, §2.3.2).
type InvalidateAck struct {
	Addr vm.Addr
}

func (m *InvalidateAck) walk(c *codec) {
	c.addr(&m.Addr)
}

// MigrateReq asks the current holder of a migratory object to move it.
type MigrateReq struct {
	Addr      vm.Addr
	Requester uint8
}

func (m *MigrateReq) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Requester)
}

// MigrateReply moves a migratory object with read+write access.
type MigrateReply struct {
	Addr vm.Addr
	Data []byte
}

func (m *MigrateReply) walk(c *codec) {
	c.addr(&m.Addr)
	c.bytes(&m.Data)
}

// UpdateBatch carries all DUQ entries destined for one node in a single
// message (§4.2: "the update mechanism automatically combines the elements
// destined for the same node into a single message"). NeedAck requests an
// UpdateAck (used when the sender must know the flush has been applied,
// e.g. before a result object's local copy is dropped).
type UpdateBatch struct {
	From    uint8
	NeedAck bool
	Entries []UpdateEntry
}

func (m *UpdateBatch) walk(c *codec) {
	c.u8(&m.From)
	c.boolean(&m.NeedAck)
	c.updates(&m.Entries)
}

// UpdateAck acknowledges an UpdateBatch.
type UpdateAck struct {
	Count uint32
}

func (m *UpdateAck) walk(c *codec) {
	c.u32(&m.Count)
}

// CopysetQuery asks which of the listed objects the destination holds
// copies of (the prototype's dynamic copyset determination, §3.3).
type CopysetQuery struct {
	From  uint8
	Addrs []vm.Addr
}

func (m *CopysetQuery) walk(c *codec) {
	c.u8(&m.From)
	words(c, &m.Addrs)
}

// CopysetReply returns the subset of queried objects the sender holds.
type CopysetReply struct {
	Addrs []vm.Addr
}

func (m *CopysetReply) walk(c *codec) {
	words(c, &m.Addrs)
}

// ReduceReq forwards a Fetch-and-Φ to the reduction object's fixed owner.
type ReduceReq struct {
	Addr      vm.Addr
	Off       uint32 // word offset within the object
	Op        ReduceOp
	Operand   uint32
	Requester uint8
}

func (m *ReduceReq) walk(c *codec) {
	c.addr(&m.Addr)
	c.u32(&m.Off)
	c.u8((*uint8)(&m.Op))
	c.u32(&m.Operand)
	c.u8(&m.Requester)
}

// ReduceReply returns the pre-operation value (Fetch-and-Φ semantics).
type ReduceReply struct {
	Addr vm.Addr
	Old  uint32
}

func (m *ReduceReply) walk(c *codec) {
	c.addr(&m.Addr)
	c.u32(&m.Old)
}

// --- Synchronization messages ---

// LockAcq requests lock ownership; forwarded along probable-owner chains.
type LockAcq struct {
	Lock      uint32
	Requester uint8
}

func (m *LockAcq) walk(c *codec) {
	c.u32(&m.Lock)
	c.u8(&m.Requester)
}

// LockSetSucc tells the distributed queue's current tail to record its
// successor (each enqueued thread knows only who follows it, §3.4).
type LockSetSucc struct {
	Lock uint32
	Succ uint8
}

func (m *LockSetSucc) walk(c *codec) {
	c.u32(&m.Lock)
	c.u8(&m.Succ)
}

// LockGrant transfers lock ownership, optionally piggybacking the updates
// for data associated with the lock (AssociateDataAndSynch, §2.5). Tail is
// the distributed queue's current last node, which the new owner must know
// to keep enqueueing requesters.
type LockGrant struct {
	Lock    uint32
	Tail    uint8
	Updates []UpdateEntry
}

func (m *LockGrant) walk(c *codec) {
	c.u32(&m.Lock)
	c.u8(&m.Tail)
	c.updates(&m.Updates)
}

// LockOwnNotify records a lock ownership transfer at the lock's home
// node. Like OwnNotify for data objects, it anchors the home's probable-
// owner hint to the true transfer history: request chases that dead-end
// on a stale hint re-route through the home, and one whose hint points
// back at the requester parks there until the in-flight transfer's
// notification arrives.
type LockOwnNotify struct {
	Lock  uint32
	Owner uint8
}

func (m *LockOwnNotify) walk(c *codec) {
	c.u32(&m.Lock)
	c.u8(&m.Owner)
}

// BarrierArrive reports a thread's arrival at a barrier to its owner node.
type BarrierArrive struct {
	Barrier uint32
	From    uint8
}

func (m *BarrierArrive) walk(c *codec) {
	c.u32(&m.Barrier)
	c.u8(&m.From)
}

// BarrierRelease resumes threads blocked at a barrier. In the
// prototype's centralized scheme the owner sends one release per remote
// arrival and Tree is false. Under the barrier-tree scheme (§3.4 sketches
// "barrier trees and other more scalable schemes" for larger systems) one
// release per node fans out down a tree: the receiver wakes every local
// waiter and forwards the release to its share of Subtree.
type BarrierRelease struct {
	Barrier uint32
	// Tree marks a tree-scheme release (a leaf's Subtree is empty, so a
	// flag distinguishes the schemes on the wire).
	Tree bool
	// Subtree lists the nodes this receiver must release in turn.
	Subtree []uint8
}

func (m *BarrierRelease) walk(c *codec) {
	c.u32(&m.Barrier)
	c.boolean(&m.Tree)
	c.bytes(&m.Subtree)
}

// --- Directory metadata ---

// DirReq fetches an object directory entry from the object's home node.
type DirReq struct {
	Addr vm.Addr
}

func (m *DirReq) walk(c *codec) {
	c.addr(&m.Addr)
}

// DirReply returns the static part of a directory entry. Group and Epoch
// carry the adaptive engine's variable-group identity and annotation
// epoch, so a freshly fetched entry starts from the home's current
// protocol generation.
type DirReply struct {
	Found bool
	Start vm.Addr
	Size  uint32
	Annot uint8
	Home  uint8
	Owner uint8
	Group vm.Addr
	Epoch uint32
}

func (m *DirReply) walk(c *codec) {
	c.boolean(&m.Found)
	c.addr(&m.Start)
	c.u32(&m.Size)
	c.u8(&m.Annot)
	c.u8(&m.Home)
	c.u8(&m.Owner)
	c.addr(&m.Group)
	c.u32(&m.Epoch)
}

// PhaseChange purges the accumulated sharing-relationship information for
// a stable-sharing object (§2.5), so adaptive programs can redistribute.
type PhaseChange struct {
	Addr vm.Addr
}

func (m *PhaseChange) walk(c *codec) {
	c.addr(&m.Addr)
}

// ChangeAnnot switches an object's sharing annotation (and hence protocol)
// on every node (§2.5's ChangeAnnotation).
type ChangeAnnot struct {
	Addr  vm.Addr
	Annot uint8
}

func (m *ChangeAnnot) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Annot)
}

// CopysetLookup asks an object's home node for the copysets it tracks —
// the "improved algorithm that uses the owner node to collect Copyset
// information" of §3.3, which the prototype devised but did not implement
// (ablation A4). One message to the home replaces the broadcast of
// CopysetQuery to every node.
type CopysetLookup struct {
	From  uint8
	Addrs []vm.Addr
}

func (m *CopysetLookup) walk(c *codec) {
	c.u8(&m.From)
	words(c, &m.Addrs)
}

// CopysetInfo is the home's reply to a CopysetLookup: the tracked
// copyset for each queried address, in the same order (each in the
// two-form set encoding).
type CopysetInfo struct {
	Addrs []vm.Addr
	Sets  []nodeset.Set
}

func (m *CopysetInfo) walk(c *codec) {
	words(c, &m.Addrs)
	for i := range list(c, &m.Sets, 8) {
		c.set(&m.Sets[i])
	}
}

// CopysetNotify tells an object's home that Reader obtained a copy from a
// node other than the home, keeping the home's tracked copyset complete
// under the exact-copyset algorithm.
type CopysetNotify struct {
	Addr   vm.Addr
	Reader uint8
}

func (m *CopysetNotify) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Reader)
}

// OwnNotify tells an object's home node that ownership moved to Owner.
// It anchors the home's probable-owner hint to the true transfer history:
// replica-to-replica hints can form cycles (each fetched its copy from
// the other), so a request chase that would revisit its own requester
// re-routes through the home, which either knows better or parks the
// request until the in-flight transfer's notification lands.
type OwnNotify struct {
	Addr  vm.Addr
	Owner uint8
}

func (m *OwnNotify) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Owner)
}

// --- Adaptive protocol engine (internal/adapt) ---

// AdaptPropose asks an object's home node to switch the object's sharing
// annotation. Proposals are formed at release points from a node's local
// access profile; the home serializes them (first fresh proposal per
// epoch wins) so concurrent advice from different nodes cannot interleave
// switches. Epoch is the proposer's view of the object's annotation
// epoch — a proposal formed before an earlier switch is stale and
// dropped. Events carries the proposer's evidence mass; Urgent marks a
// correctness switch (a write faulted on a non-writable protocol, a
// Fetch-and-Φ hit a non-reduction object) that the home must honour even
// when the perf hysteresis would reject it.
type AdaptPropose struct {
	Addr   vm.Addr
	Annot  uint8
	Epoch  uint32
	From   uint8
	Events uint32
	Urgent bool
}

func (m *AdaptPropose) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Annot)
	c.u32(&m.Epoch)
	c.u8(&m.From)
	c.u32(&m.Events)
	c.boolean(&m.Urgent)
}

// AdaptCommit broadcasts a committed annotation switch from the object's
// home to every node. Receivers with delayed writes still enqueued defer
// the switch to their next release flush (directory.Entry.PendingAnnot);
// everyone else applies it immediately.
type AdaptCommit struct {
	Addr  vm.Addr
	Annot uint8
	Epoch uint32
}

func (m *AdaptCommit) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Annot)
	c.u32(&m.Epoch)
}

// --- Lazy release consistency (internal/lrc) ---
//
// Under the lazy engine a release propagates nothing: it closes an
// interval on the releasing node and the interval's write notices travel
// on the next synchronization message the happens-before order requires
// (a lock grant, a barrier release). Diffs move only on demand, pulled by
// the acquirer with a request/response pair. Vector timestamps are dense
// []uint32 slices indexed by node id.

// LrcInterval is one write-notice interval: at its close, node Node had
// buffered modifications to exactly the objects in Addrs. Receiving the
// notice obliges a node holding a copy of any of those objects to fetch
// the interval's diffs before using the copy after its next acquire.
type LrcInterval struct {
	Node  uint8
	Ivl   uint32
	Addrs []vm.Addr
}

func (iv *LrcInterval) walk(c *codec) {
	c.u8(&iv.Node)
	c.u32(&iv.Ivl)
	words(c, &iv.Addrs)
}

// LrcRecord is one stored diff: the writes one node made to one object
// during its closed intervals [First, Last], as a word diff against the
// twin (Diff) or a full snapshot (Full; currently only post-run
// materialization produces these). VT is the writer's vector timestamp at
// the close of interval Last — the happens-before order diffs from
// different writers must be applied in.
type LrcRecord struct {
	First uint32
	Last  uint32
	VT    []uint32
	Diff  []byte
	Full  []byte
}

func (r *LrcRecord) walk(c *codec) {
	c.u32(&r.First)
	c.u32(&r.Last)
	words(c, &r.VT)
	c.payload(&r.Full, &r.Diff)
}

// LrcDiffSet carries one object's records inside an LrcDiffResp.
type LrcDiffSet struct {
	Addr    vm.Addr
	Records []LrcRecord
}

func (s *LrcDiffSet) walk(c *codec) {
	c.addr(&s.Addr)
	for i := range list(c, &s.Records, 1) {
		s.Records[i].walk(c)
	}
}

// LrcLockAcq is LockAcq under the lazy engine: the requester's vector
// timestamp rides along so the eventual granter can send exactly the
// write notices the requester has not seen.
type LrcLockAcq struct {
	Lock      uint32
	Requester uint8
	VT        []uint32
}

func (m *LrcLockAcq) walk(c *codec) {
	c.u32(&m.Lock)
	c.u8(&m.Requester)
	words(c, &m.VT)
}

// LrcLockSetSucc is LockSetSucc under the lazy engine: the successor's
// vector timestamp must reach the node that will eventually grant to it.
type LrcLockSetSucc struct {
	Lock uint32
	Succ uint8
	VT   []uint32
}

func (m *LrcLockSetSucc) walk(c *codec) {
	c.u32(&m.Lock)
	c.u8(&m.Succ)
	words(c, &m.VT)
}

// LrcLockGrant is the acquire-with-notices grant: lock ownership plus the
// releaser's vector timestamp and the write notices between the
// acquirer's timestamp and the releaser's. Updates piggybacks data for
// objects associated with the lock whose protocols are not lazily
// managed (migratory critical-section data still moves with the lock).
type LrcLockGrant struct {
	Lock    uint32
	Tail    uint8
	VT      []uint32
	Notices []LrcInterval
	Updates []UpdateEntry
}

func (m *LrcLockGrant) walk(c *codec) {
	c.u32(&m.Lock)
	c.u8(&m.Tail)
	words(c, &m.VT)
	c.intervals(&m.Notices)
	c.updates(&m.Updates)
}

// LrcBarrierArrive reports a barrier arrival under the lazy engine,
// carrying the arriver's vector timestamp, the write notices the barrier
// master may not have seen, and the arriver's applied floors (per writer:
// the lowest interval any of its copies still lacks), from which the
// master computes the garbage-collection floor.
type LrcBarrierArrive struct {
	Barrier uint32
	From    uint8
	VT      []uint32
	Floors  []uint32
	Notices []LrcInterval
}

func (m *LrcBarrierArrive) walk(c *codec) {
	c.u32(&m.Barrier)
	c.u8(&m.From)
	words(c, &m.VT)
	words(c, &m.Floors)
	c.intervals(&m.Notices)
}

// LrcBarrierRelease resumes threads blocked at a barrier under the lazy
// engine, carrying the merged vector timestamp and the write notices the
// destination is missing. Departing the barrier is an acquire: the
// receiver absorbs the notices and refreshes its stale copies on demand.
type LrcBarrierRelease struct {
	Barrier uint32
	Tree    bool
	Subtree []uint8
	VT      []uint32
	Notices []LrcInterval
}

func (m *LrcBarrierRelease) walk(c *codec) {
	c.u32(&m.Barrier)
	c.boolean(&m.Tree)
	c.bytes(&m.Subtree)
	words(c, &m.VT)
	c.intervals(&m.Notices)
}

// LrcDiffReq asks a writer for the diffs of its closed intervals on the
// listed objects: for Addrs[i], every record with Last > After[i]. The
// writer materializes pending diffs lazily at this first remote request.
// Token routes the response to the requesting thread.
type LrcDiffReq struct {
	Requester uint8
	Token     uint32
	Addrs     []vm.Addr
	After     []uint32
}

func (m *LrcDiffReq) walk(c *codec) {
	c.u8(&m.Requester)
	c.u32(&m.Token)
	words(c, &m.Addrs)
	words(c, &m.After)
}

// LrcDiffResp answers an LrcDiffReq with the requested records per object.
type LrcDiffResp struct {
	Token uint32
	Sets  []LrcDiffSet
}

func (m *LrcDiffResp) walk(c *codec) {
	c.u32(&m.Token)
	for i := range list(c, &m.Sets, 1) {
		m.Sets[i].walk(c)
	}
}

// LrcFetchReq asks an object's home node for a base copy (a node that
// never held the object needs one before diffs mean anything).
type LrcFetchReq struct {
	Addr      vm.Addr
	Requester uint8
	Token     uint32
}

func (m *LrcFetchReq) walk(c *codec) {
	c.addr(&m.Addr)
	c.u8(&m.Requester)
	c.u32(&m.Token)
}

// LrcFetchResp returns a base copy plus, per writer, the highest closed
// interval already incorporated in it; the fetcher pulls the rest as
// diffs.
type LrcFetchResp struct {
	Addr    vm.Addr
	Token   uint32
	Applied []uint32
	Data    []byte
}

func (m *LrcFetchResp) walk(c *codec) {
	c.addr(&m.Addr)
	c.u32(&m.Token)
	words(c, &m.Applied)
	c.bytes(&m.Data)
}

// LrcGC broadcasts the garbage-collection floor the barrier master
// computed from every arrival's applied floors: node j's diff records for
// intervals <= Floors[j] have been incorporated into every surviving
// copy (or superseded for every future fetch) and can be discarded, along
// with the matching write-notice bookkeeping.
type LrcGC struct {
	Floors []uint32
}

func (m *LrcGC) walk(c *codec) {
	words(c, &m.Floors)
}

// --- Batching envelope ---

// Batch coalesces protocol messages bound for one destination into a
// single transport send: a release flush's update plus the lock grant
// that follows it, a barrier master's updates plus its releases, a lazy
// barrier release plus the garbage-collection floor — anything one
// protocol operation fans out to the same node. The transport counts a
// batch as ONE send (one send-path CPU charge plus a reduced per-rider
// charge, one wire header) while the per-kind statistics still attribute
// every inner message; the receiving dispatcher unpacks the envelope and
// handles the messages in order, so an envelope preserves exactly the
// per-destination FIFO order the unbatched sends would have had.
//
// Batches never nest: Marshal panics on (and Unmarshal rejects) a Batch
// inside a Batch.
type Batch struct {
	Msgs []Message
}

func (m *Batch) walk(c *codec) {
	for i := range list(c, &m.Msgs, 1) {
		c.rider(i, &m.Msgs[i])
	}
}

// --- Message passing baseline ---

// MPData is a raw tagged payload for the hand-coded message-passing
// programs (the paper's "DM" versions).
type MPData struct {
	Tag     uint32
	Payload []byte
}

func (m *MPData) walk(c *codec) {
	c.u32(&m.Tag)
	c.bytes(&m.Payload)
}

func (ReadReq) Kind() Kind        { return KindReadReq }
func (ReadReply) Kind() Kind      { return KindReadReply }
func (OwnReq) Kind() Kind         { return KindOwnReq }
func (OwnReply) Kind() Kind       { return KindOwnReply }
func (Invalidate) Kind() Kind     { return KindInvalidate }
func (InvalidateAck) Kind() Kind  { return KindInvalidateAck }
func (MigrateReq) Kind() Kind     { return KindMigrateReq }
func (MigrateReply) Kind() Kind   { return KindMigrateReply }
func (UpdateBatch) Kind() Kind    { return KindUpdateBatch }
func (UpdateAck) Kind() Kind      { return KindUpdateAck }
func (CopysetQuery) Kind() Kind   { return KindCopysetQuery }
func (CopysetReply) Kind() Kind   { return KindCopysetReply }
func (ReduceReq) Kind() Kind      { return KindReduceReq }
func (ReduceReply) Kind() Kind    { return KindReduceReply }
func (LockAcq) Kind() Kind        { return KindLockAcq }
func (LockSetSucc) Kind() Kind    { return KindLockSetSucc }
func (LockOwnNotify) Kind() Kind  { return KindLockOwnNotify }
func (LockGrant) Kind() Kind      { return KindLockGrant }
func (BarrierArrive) Kind() Kind  { return KindBarrierArrive }
func (BarrierRelease) Kind() Kind { return KindBarrierRelease }
func (DirReq) Kind() Kind         { return KindDirReq }
func (DirReply) Kind() Kind       { return KindDirReply }
func (PhaseChange) Kind() Kind    { return KindPhaseChange }
func (ChangeAnnot) Kind() Kind    { return KindChangeAnnot }
func (CopysetLookup) Kind() Kind  { return KindCopysetLookup }
func (CopysetInfo) Kind() Kind    { return KindCopysetInfo }
func (CopysetNotify) Kind() Kind  { return KindCopysetNotify }
func (OwnNotify) Kind() Kind      { return KindOwnNotify }
func (AdaptPropose) Kind() Kind   { return KindAdaptPropose }
func (AdaptCommit) Kind() Kind    { return KindAdaptCommit }
func (MPData) Kind() Kind         { return KindMPData }

func (LrcLockAcq) Kind() Kind        { return KindLrcLockAcq }
func (LrcLockSetSucc) Kind() Kind    { return KindLrcLockSetSucc }
func (LrcLockGrant) Kind() Kind      { return KindLrcLockGrant }
func (LrcBarrierArrive) Kind() Kind  { return KindLrcBarrierArrive }
func (LrcBarrierRelease) Kind() Kind { return KindLrcBarrierRelease }
func (LrcDiffReq) Kind() Kind        { return KindLrcDiffReq }
func (LrcDiffResp) Kind() Kind       { return KindLrcDiffResp }
func (LrcFetchReq) Kind() Kind       { return KindLrcFetchReq }
func (LrcFetchResp) Kind() Kind      { return KindLrcFetchResp }
func (LrcGC) Kind() Kind             { return KindLrcGC }
func (Batch) Kind() Kind             { return KindBatch }

// Riders returns the number of protocol messages one transport send of
// msg carries: len(b.Msgs) for a batch envelope, 1 for anything else.
// The cost models charge the send path per envelope plus a reduced
// per-rider increment (model.CostModel.SendCPU).
func Riders(msg Message) int {
	if b, ok := msg.(Batch); ok {
		return len(b.Msgs)
	}
	return 1
}
