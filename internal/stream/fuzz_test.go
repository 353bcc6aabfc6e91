package stream_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"botmeter/internal/core"
	"botmeter/internal/stream"
)

// seedFrames returns real exported states as frames — one per differential
// case, so every estimator family's cell shape is represented.
func seedFrames(f *testing.F) [][]byte {
	var frames [][]byte
	for _, tc := range diffCases() {
		trc := synthTrace(f, tc.spec, 0x5EED, 6, 2, tc.activations)
		cfg := stream.Config{
			Core:    core.Config{Family: tc.spec, Seed: 0x5EED, EpochLen: testEpochLen, SecondOpinion: tc.secondOpinion},
			Shards:  2,
			Vantage: "fuzz-seed",
		}
		if tc.estimators != nil {
			cfg.Core.Estimators = tc.estimators()
		}
		eng, err := stream.New(cfg)
		if err != nil {
			f.Fatalf("stream.New(%s): %v", tc.name, err)
		}
		for _, rec := range trc {
			if err := eng.Observe(rec); err != nil {
				f.Fatalf("Observe(%s): %v", tc.name, err)
			}
		}
		st, err := eng.ExportState()
		if err != nil {
			f.Fatalf("ExportState(%s): %v", tc.name, err)
		}
		eng.Kill()
		frame, err := stream.EncodeCheckpoint(st)
		if err != nil {
			f.Fatalf("EncodeCheckpoint(%s): %v", tc.name, err)
		}
		frames = append(frames, frame)
	}
	return frames
}

const frameHeader = 48

// reframe puts a well-formed header of the current format version — length
// and SHA-256 included — in front of payload: what a hostile vantage can do
// to any bytes it likes.
func reframe(payload []byte) []byte {
	frame := make([]byte, frameHeader, frameHeader+len(payload))
	empty, _ := stream.EncodeCheckpoint(&stream.EngineState{})
	copy(frame, empty[:8]) // magic and version
	binary.BigEndian.PutUint64(frame[8:], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(frame[16:], sum[:])
	return append(frame, payload...)
}

// checkDecode is the property both fuzzers hold DecodeCheckpoint to: it never
// panics, and any frame it accepts survives the coordinator's merge→encode
// path and re-merges to a byte-stable state.
func checkDecode(t *testing.T, data []byte) {
	st, err := stream.DecodeCheckpoint(data)
	if err != nil {
		return
	}
	// An accepted frame feeds the coordinator's merge path. It may still be
	// semantically invalid — merge is allowed to reject it, never to panic.
	merged, err := stream.MergeStates(st)
	if err != nil {
		return
	}
	frame, err := stream.EncodeCheckpoint(merged)
	if err != nil {
		t.Fatalf("merged state failed to encode: %v", err)
	}
	// Merge output is canonical: decode→merge must be a fixed point.
	again, err := stream.DecodeCheckpoint(frame)
	if err != nil {
		t.Fatalf("re-decode of encoded merge output: %v", err)
	}
	stable, err := stream.MergeStates(again)
	if err != nil {
		t.Fatalf("re-merge of canonical state: %v", err)
	}
	frame2, err := stream.EncodeCheckpoint(stable)
	if err != nil {
		t.Fatalf("re-encode of canonical state: %v", err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Fatal("decode→merge→encode is not byte-stable on its own output")
	}
}

// FuzzDecodeEngineState hardens the federation's wire boundary: a
// landscape-server decodes checkpoint frames pulled from remote vantage
// daemons, so DecodeCheckpoint must hold checkDecode on hostile bytes. It
// mutates whole frames, so it exercises the framing checks; nearly nothing it
// makes gets past the checksum (see FuzzDecodeStatePayload).
func FuzzDecodeEngineState(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte("BMCP"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(checkDecode)
}

// FuzzDecodeStatePayload mutates the payload and frames it correctly, so
// every input reaches the payload decoder — the hand-written half of
// DecodeCheckpoint, which a forged but well-framed state attacks.
func FuzzDecodeStatePayload(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame[frameHeader:])
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkDecode(t, reframe(payload))
	})
}
