package netconduit

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/runtime"
)

// encodeFrame encodes one message as a one-message batch frame (length
// prefix included), failing the test on an encode error.
func encodeFrame(t *testing.T, seq uint64, to int, m runtime.Message, epoch time.Time) []byte {
	t.Helper()
	body, err := appendMessageBody(nil, to, m, epoch)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	frame, err := appendBatchFrame(nil, seq, 1, body)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return frame
}

// roundTrip encodes one message as a batch frame and decodes it back
// through the same epoch, failing the test on any mismatch.
func roundTrip(t *testing.T, m runtime.Message, to int) runtime.Message {
	t.Helper()
	epoch := time.Now()
	frame := encodeFrame(t, 7, to, m, epoch)
	var cache paramsCache
	seq, msgs, err := decodeBatch(frame[4:], epoch, &cache, nil) // skip the length prefix
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if seq != 7 || len(msgs) != 1 || msgs[0].to != to {
		t.Fatalf("seq/count/to = %d/%d/%v, want 7/1/%d", seq, len(msgs), msgs, to)
	}
	return msgs[0].m
}

func testParams(t *testing.T) core.Params {
	t.Helper()
	p, err := core.NewParams(64, 2, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCodecRoundTripPayloads pins that every concrete protocol payload
// crosses the frame codec content-identical, Params (including the derived
// unexported wire widths — Params is comparable, so == checks them all) and
// SizeBits included.
func TestCodecRoundTripPayloads(t *testing.T) {
	p := testParams(t)
	relaxed, err := p.WithProtocol(core.Protocol{Variant: core.ProtocolRelaxed, MinVotes: 3})
	if err != nil {
		t.Fatal(err)
	}
	retrans, err := p.WithProtocol(core.Protocol{Variant: core.ProtocolRetransmit, Passes: 3})
	if err != nil {
		t.Fatal(err)
	}
	payloads := []gossip.Payload{
		nil,
		core.Intentions{P: p, Votes: []core.Intent{{H: 1, Z: 0}, {H: 99, Z: 63}}},
		core.Vote{P: p, Value: 12345, Index: 4},
		core.Vote{P: retrans, Value: 1, Index: 17},
		core.IntentQuery{P: p},
		core.CertQuery{P: relaxed},
		&core.Certificate{
			P: p, K: 77,
			W:     []core.WEntry{{Voter: 3, Value: 9}, {Voter: 61, Value: 140608}},
			Color: 1, Owner: 3,
		},
		&core.Certificate{P: p, K: 0, W: nil, Color: core.ColorBot, Owner: 0},
	}
	for i, payload := range payloads {
		m := runtime.Message{Kind: runtime.MsgPush, Round: 13, From: 5, Payload: payload}
		got := roundTrip(t, m, 9)
		if got.Kind != m.Kind || got.Round != m.Round || got.From != m.From {
			t.Fatalf("payload %d: header changed: %+v vs %+v", i, got, m)
		}
		want := payload
		if c, ok := payload.(*core.Certificate); ok && len(c.W) == 0 {
			// A nil and an empty vote multiset are the same certificate; the
			// codec does not distinguish them.
			cc := *c
			cc.W = []core.WEntry{}
			want = &cc
		}
		if !reflect.DeepEqual(got.Payload, want) {
			t.Fatalf("payload %d changed across the wire:\nsent %#v\ngot  %#v", i, payload, got.Payload)
		}
		if payload != nil && got.Payload.SizeBits() != payload.SizeBits() {
			t.Fatalf("payload %d: SizeBits %d -> %d", i, payload.SizeBits(), got.Payload.SizeBits())
		}
	}
}

// TestCodecVotePointer pins that a *Vote encodes like its value: handlers
// accept both shapes, and the wire keeps the simpler one.
func TestCodecVotePointer(t *testing.T) {
	p := testParams(t)
	v := &core.Vote{P: p, Value: 8, Index: 1}
	got := roundTrip(t, runtime.Message{Kind: runtime.MsgVote, Round: 30, From: 2, Payload: v}, 3)
	if !reflect.DeepEqual(got.Payload, *v) {
		t.Fatalf("pointer vote decoded to %#v, want value %#v", got.Payload, *v)
	}
}

// TestCodecSentAtTicks pins the mono-relative timestamp: a SentAt stamped
// after the epoch survives the wire to sub-nanosecond identity when both
// ends share the epoch, and the zero time stays zero (untimed scheduler
// traffic must not grow a timestamp).
func TestCodecSentAtTicks(t *testing.T) {
	p := testParams(t)
	m := runtime.Message{Kind: runtime.MsgQuery, Round: 1, From: 0, Payload: core.IntentQuery{P: p}}
	if got := roundTrip(t, m, 1); !got.SentAt.IsZero() {
		t.Fatalf("zero SentAt decoded as %v", got.SentAt)
	}
	epoch := time.Now()
	m.SentAt = epoch.Add(1500 * time.Microsecond)
	frame := encodeFrame(t, 1, 1, m, epoch)
	var cache paramsCache
	_, msgs, err := decodeBatch(frame[4:], epoch, &cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := msgs[0].m.SentAt.Sub(m.SentAt); d != 0 {
		t.Fatalf("SentAt drifted %v across the wire", d)
	}
}

// TestCodecParamsCache pins the per-connection Params memoization: the
// second decode of the same parameter block must return the cached value.
func TestCodecParamsCache(t *testing.T) {
	p := testParams(t)
	b, err := appendParams(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	var cache paramsCache
	first, err := readParams(&reader{b: b}, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if first != p {
		t.Fatalf("decoded params %+v != original %+v", first, p)
	}
	if !cache.ok {
		t.Fatal("cache not primed")
	}
	second, err := readParams(&reader{b: b}, &cache)
	if err != nil {
		t.Fatal(err)
	}
	if second != p {
		t.Fatalf("cached params %+v != original %+v", second, p)
	}
}

// TestCodecRejectsMalformed walks the garbage taxonomy: every malformed
// frame body must come back as a codec error for its own reason, never a
// panic or a silent success.
func TestCodecRejectsMalformed(t *testing.T) {
	p := testParams(t)
	good := encodeFrame(t, 1, 2, runtime.Message{
		Kind: runtime.MsgPush, Round: 3, From: 1,
		Payload: core.Vote{P: p, Value: 5},
	}, time.Now())
	body := good[4:] // strip the length prefix
	// The 9-byte header (type, version, seq, count, kind, flags, round, from,
	// to — all single bytes here) precedes the payload tag.
	const hdr = 9
	with := func(i int, v byte) []byte {
		b := append([]byte{}, body...)
		b[i] = v
		return b
	}

	cases := []struct {
		name, reason string
		body         []byte
	}{
		{"empty", "empty frame", []byte{}},
		{"v1 message frame", "unknown frame type 1", with(0, 1)},
		{"v1 ack frame", "unknown frame type 2", with(0, 2)},
		{"bad version", "unsupported batch version 99", with(1, 99)},
		{"zero count", "batch count 0", with(3, 0)},
		{"count beyond frame", "batch count 100 overruns", with(3, 100)},
		{"count beyond bodies", "truncated message header", with(3, 2)},
		{"round-start kind", "unknown message kind 0", with(4, byte(runtime.MsgRound))},
		{"unknown kind", "unknown message kind 9", with(4, 9)},
		{"truncated header", "truncated message header", body[:7]},
		{"truncated params", "truncated params", body[:len(body)-6]},
		{"trailing bytes", "trailing bytes", append(append([]byte{}, body...), 0xAA)},
		{"bad payload tag", "unknown payload tag 127", append(append([]byte{}, body[:hdr]...), 0x7F)},
	}
	for _, tc := range cases {
		var cache paramsCache
		_, _, err := decodeBatch(tc.body, time.Now(), &cache, nil)
		if !errors.Is(err, errCodec) || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: err = %v, want a codec error for %q", tc.name, err, tc.reason)
		}
	}
	if _, _, _, err := decodeBatchAck([]byte{0x01}); !errors.Is(err, errCodec) {
		t.Errorf("truncated batch ack: err = %v", err)
	}
	if _, _, _, err := decodeBatchAck([]byte{0x01, 0x09, 0xFF}); !errors.Is(err, errCodec) {
		t.Errorf("batch ack with a short bitmap: err = %v", err)
	}
}

// TestCodecRejectsHugeCounts pins the allocation guards: a garbage count
// larger than the frame's remaining bytes — of the batch's messages, or of
// a payload's list — is rejected before any allocation of that size.
func TestCodecRejectsHugeCounts(t *testing.T) {
	p := testParams(t)
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // uvarint 2^56

	// A batch frame claiming 2^56 messages.
	batch := append([]byte{frameBatch, batchVersion, 1 /*seq*/}, huge...)
	// A one-message batch whose intentions payload claims 2^56 votes.
	intents := []byte{frameBatch, batchVersion, 1 /*seq*/, 1 /*count*/, byte(runtime.MsgReply), 0 /*flags*/, 1, 1, 1, payIntentions}
	intents, err := appendParams(intents, p)
	if err != nil {
		t.Fatal(err)
	}
	intents = append(intents, huge...)
	// The same claim as a certificate's vote count (K, then the count).
	cert := []byte{frameBatch, batchVersion, 1, 1, byte(runtime.MsgReply), 0, 1, 1, 1, payCertificate}
	if cert, err = appendParams(cert, p); err != nil {
		t.Fatal(err)
	}
	cert = append(append(cert, 7 /*K*/), huge...)

	for _, tc := range []struct {
		name, reason string
		body         []byte
	}{
		{"batch count", "batch count 72057594037927936 overruns", batch},
		{"intentions count", "intentions count 72057594037927936 overruns", intents},
		{"certificate count", "certificate vote count 72057594037927936 overruns", cert},
	} {
		var cache paramsCache
		_, _, err := decodeBatch(tc.body, time.Now(), &cache, nil)
		if !errors.Is(err, errCodec) || !strings.Contains(err.Error(), tc.reason) {
			t.Errorf("%s: err = %v, want a codec error for %q", tc.name, err, tc.reason)
		}
	}
}

// TestReadFrameBounds pins the frame-length guard: zero and oversized
// lengths are connection-fatal codec errors, and a truncated body surfaces
// as an I/O error — all without allocating MaxFrame-scale buffers for
// garbage.
func TestReadFrameBounds(t *testing.T) {
	var buf []byte
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0}), &buf); !errors.Is(err, errCodec) {
		t.Errorf("zero length: err = %v", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}), &buf); !errors.Is(err, errCodec) {
		t.Errorf("oversized length: err = %v", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 9, 1, 2}), &buf); err == nil {
		t.Error("truncated body: no error")
	}
}
