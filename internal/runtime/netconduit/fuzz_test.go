package netconduit

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/runtime"
)

// FuzzBatchFrame drives the listener's frame decoder with arbitrary frame
// bodies. A malformed body must come back as a codec error, never a panic;
// a body that decodes must hold at least one message, and re-encoding its
// messages must decode to the same sequence number and messages.
func FuzzBatchFrame(f *testing.F) {
	p := core.MustParams(64, 2, 3.0)
	relaxed, err := p.WithProtocol(core.Protocol{Variant: core.ProtocolRelaxed, MinVotes: 3})
	if err != nil {
		f.Fatal(err)
	}
	epoch := time.Unix(1_700_000_000, 0)
	payloads := []gossip.Payload{
		nil,
		core.Intentions{P: p, Votes: []core.Intent{{H: 1, Z: 0}, {H: 99, Z: 63}}},
		core.Vote{P: p, Value: 12345, Index: 4},
		core.IntentQuery{P: relaxed},
		core.CertQuery{P: p},
		&core.Certificate{P: p, K: 77, W: []core.WEntry{{Voter: 3, Value: 9}}, Color: 1, Owner: 3},
	}
	// One frame per payload, and one frame carrying all of them.
	var all []byte
	for i, payload := range payloads {
		m := runtime.Message{Kind: runtime.MsgPush + runtime.MsgKind(i%4), Round: i, From: i + 1, Payload: payload}
		if i%2 == 0 {
			m.SentAt = epoch.Add(time.Duration(i) * time.Millisecond)
		}
		body, err := appendMessageBody(nil, i+2, m, epoch)
		if err != nil {
			f.Fatal(err)
		}
		all = append(all, body...)
		frame, err := appendBatchFrame(nil, uint64(i), 1, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	frame, err := appendBatchFrame(nil, 99, len(payloads), all)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame[4:])
	for _, g := range garbageFrames {
		if len(g) >= 4 {
			f.Add(g[4:])
		}
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var cache paramsCache
		seq, msgs, err := decodeBatch(body, epoch, &cache, nil)
		if err != nil {
			if !errors.Is(err, errCodec) {
				t.Fatalf("malformed frame gave a non-codec error: %v", err)
			}
			return
		}
		if len(msgs) == 0 {
			t.Fatal("a frame decoded to zero messages")
		}
		var bodies []byte
		for _, in := range msgs {
			if bodies, err = appendMessageBody(bodies, in.to, in.m, epoch); err != nil {
				t.Fatalf("decoded message does not re-encode: %v", err)
			}
		}
		again, err := appendBatchFrame(nil, seq, len(msgs), bodies)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		seq2, msgs2, err := decodeBatch(again[4:], epoch, &paramsCache{}, nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if seq2 != seq || !reflect.DeepEqual(msgs2, msgs) {
			t.Fatalf("re-encoding changed the frame:\nfirst  %d %+v\nsecond %d %+v", seq, msgs, seq2, msgs2)
		}
	})
}
