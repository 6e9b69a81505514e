package wire

import (
	"encoding/hex"
	"testing"
)

// goldenLayout is the exact wire encoding of each sampleMessages entry,
// in order. Round trips, Size == len(Marshal) and the Table 6 figures all
// survive a field reorder; this table does not, so any change to a
// kind's byte layout must show up here as a deliberate edit.
var goldenLayout = []struct{ kind, hex string }{
	{"read-req", "01001000800301"},
	{"read-reply", "0200100080020400000001020304"},
	{"own-req", "030020008007"},
	{"own-reply", "04002000800b000000000000000400000009080706"},
	{"own-reply", "0400200080ffffffffffffffff04013f40c801020000000908"},
	{"invalidate", "050030008005"},
	{"invalidate-ack", "0600300080"},
	{"migrate-req", "070040008001"},
	{"migrate-reply", "080040008001000000ff"},
	{"update-batch", "090401020000000050008000200000000c00000001000000010000002a000000007000801000000001100000000102030405060708090a0b0c0d0e0f10"},
	{"update-ack", "0a02000000"},
	{"copyset-query", "0b00020000000010008000300080"},
	{"copyset-reply", "0c0100000000100080"},
	{"reduce-req", "0d0080008004000000011100000006"},
	{"reduce-reply", "0e0080008063000000"},
	{"lock-acq", "0f0100000009"},
	{"lock-set-succ", "10010000000a"},
	{"lock-own-notify", "1f0100000006"},
	{"lock-grant", "110100000003010000000090008004000000010400000001020304"},
	{"barrier-arrive", "12020000000b"},
	{"barrier-release", "13020000000000000000"},
	{"barrier-release", "13020000000103000000030405"},
	{"dir-req", "1400a00080"},
	{"dir-reply", "150100a00080002000000300020000000000000000"},
	{"phase-change", "1600b00080"},
	{"change-annot", "1700b0008002"},
	{"copyset-lookup", "18050200000000c0008000e00080"},
	{"copyset-info", "190200000000c0008000e00080020000000500000000000000ffffffffffffffff040304418201"},
	{"copyset-notify", "1a00c000800c"},
	{"own-notify", "1b00c0008003"},
	{"adapt-propose", "1c00d000800402000000061f00000001"},
	{"adapt-commit", "1d00d000800403000000"},
	{"mp-data", "1e4d0000000500000068656c6c6f"},
	{"lrc-lock-acq", "2002000000030400000000000000040000000100000009000000"},
	{"lrc-lock-set-succ", "2102000000050400000001000000000000000000000002000000"},
	{"lrc-lock-grant", "220200000001040000000300000004000000000000000900000002000000010400000002000000001000800030008003090000000100000000100080010000000090008004000000010400000001020304"},
	{"lrc-barrier-arrive", "23e903000002040000000300000004000000000000000900000004000000010000000200000000000000050000000100000002010000000100000000200080"},
	{"lrc-barrier-release", "24e9030000000000000004000000030000000400000001000000090000000100000000030000000100000000100080"},
	{"lrc-barrier-release", "24e903000001020000000203040000000300000004000000010000000900000000000000"},
	{"lrc-diff-req", "250411000000020000000010008000300080020000000000000002000000"},
	{"lrc-diff-resp", "261100000002000000001000800200000001000000020000000400000000000000020000000000000000000000000c00000001000000010000002a000000030000000300000004000000010000000300000000000000040000000104000000090909090030008000000000"},
	{"lrc-fetch-req", "27001000800617000000"},
	{"lrc-fetch-resp", "28001000801700000004000000020000000000000001000000000000000400000001020304"},
	{"lrc-gc", "290400000001000000020000000300000004000000"},
	{"batch", "2a0400000020000000090200010000000050008000200000000c00000001000000010000002a0000001b0000001101000000030100000000900080040000000104000000010203040c0000001302000000010200000003040d00000029020000000100000002000000"},
}

// TestWireLayoutGolden pins every kind's byte layout: each sample
// message must encode to exactly its recorded bytes, and those bytes
// must decode back to a message that re-encodes identically.
func TestWireLayoutGolden(t *testing.T) {
	msgs := sampleMessages()
	if len(msgs) != len(goldenLayout) {
		t.Fatalf("%d sample messages, %d golden encodings: regenerate the table", len(msgs), len(goldenLayout))
	}
	for i, msg := range msgs {
		g := goldenLayout[i]
		if got := msg.Kind().String(); got != g.kind {
			t.Fatalf("sample %d is %s, golden entry is %s", i, got, g.kind)
		}
		if got := hex.EncodeToString(Marshal(msg)); got != g.hex {
			t.Errorf("sample %d (%s) encodes to\n %s\nwant\n %s", i, g.kind, got, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		dec, err := Unmarshal(want)
		if err != nil {
			t.Errorf("sample %d (%s): golden bytes do not decode: %v", i, g.kind, err)
			continue
		}
		if got := hex.EncodeToString(Marshal(dec)); got != g.hex {
			t.Errorf("sample %d (%s): golden bytes re-encode to %s", i, g.kind, got)
		}
	}
}
