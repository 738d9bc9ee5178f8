package comm

// Wire-codec tests: every payload type the tcp transport promises to
// preserve must survive encode -> readFrame -> decode bitwise and with its
// concrete Go type intact (receiver-side type assertions depend on it), and
// every truncated or corrupt frame must surface as an error — never a panic,
// never a silently wrong payload.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// codecPayloads covers every typed arm of the payload codec plus the gob
// fallback, with empty and non-trivial values.
var codecPayloads = []any{
	nil,
	[]float64{},
	[]float64{1.5, -2.25, math.Inf(1), math.SmallestNonzeroFloat64},
	[]float32{0.5, -7},
	[]int{0, -1, 1 << 40},
	[]int64{math.MinInt64, math.MaxInt64},
	[]int32{-5, 6},
	[]byte{0, 1, 255},
	[]bool{true, false, true},
	[]complex128{complex(1, -2), complex(-3.5, 4.25)},
	[]string{"", "hello", "wor\x00ld"},
	float64(3.25),
	float32(-1.5),
	int(-42),
	int64(1 << 60),
	int32(-7),
	uint64(1 << 63),
	uint32(9),
	byte(200),
	true,
	"scalar string",
	complex(2.5, -0.5),
}

// encodeRoundTrip pushes fr through the full wire path — encode, frame read
// from a byte stream, decode — exactly as the tcp reader does.
func encodeRoundTrip(t *testing.T, fr *Frame) *Frame {
	t.Helper()
	buf, err := encodeData(fr)
	if err != nil {
		t.Fatalf("encodeData(%#v): %v", fr, err)
	}
	kind, body, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if kind != frameData {
		t.Fatalf("frame kind = %d, want %d", kind, frameData)
	}
	got, err := decodeData(body)
	if err != nil {
		t.Fatalf("decodeData: %v", err)
	}
	return got
}

func TestFrameDataRoundTrip(t *testing.T) {
	for _, payload := range codecPayloads {
		fr := &Frame{Ctx: 0xfeed, Src: 3, Dst: 1, Tag: 42, Seq: 7, Hold: 2, Reorder: 99, Payload: payload}
		got := encodeRoundTrip(t, fr)
		if !reflect.DeepEqual(got, fr) {
			t.Errorf("payload %T: round trip = %#v, want %#v", payload, got, fr)
		}
		if payload != nil && reflect.TypeOf(got.Payload) != reflect.TypeOf(payload) {
			t.Errorf("payload %T: concrete type not preserved, got %T", payload, got.Payload)
		}
	}
}

// TestFrameNegativeTagRoundTrip pins the wildcard constants: AnySource and
// AnyTag are -1 and a tag may be any int, so the codec must be sign-correct.
func TestFrameNegativeTagRoundTrip(t *testing.T) {
	fr := &Frame{Ctx: 1, Src: 0, Dst: 0, Tag: -1, Payload: []byte{1}}
	got := encodeRoundTrip(t, fr)
	if got.Tag != -1 {
		t.Fatalf("negative tag round trip = %d, want -1", got.Tag)
	}
}

type gobPayload struct {
	A int
	B string
}

func TestFrameGobFallbackRoundTrip(t *testing.T) {
	gob.Register(gobPayload{})
	fr := &Frame{Src: 1, Dst: 0, Tag: 5, Payload: gobPayload{A: 7, B: "x"}}
	got := encodeRoundTrip(t, fr)
	if !reflect.DeepEqual(got.Payload, fr.Payload) {
		t.Fatalf("gob payload round trip = %#v, want %#v", got.Payload, fr.Payload)
	}
}

func TestFrameUnencodablePayloadErrors(t *testing.T) {
	fr := &Frame{Payload: func() {}}
	if _, err := encodeData(fr); err == nil {
		t.Fatal("encodeData accepted a func payload; want error")
	}
}

// TestFrameTruncationRejected feeds every strict prefix of a valid frame to
// the decoder stack; each one must produce an error, never a panic and never
// a frame.
func TestFrameTruncationRejected(t *testing.T) {
	fr := &Frame{Ctx: 2, Src: 1, Dst: 0, Tag: 3, Seq: 4, Payload: []float64{1, 2, 3}}
	buf, err := encodeData(fr)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(buf); n++ {
		kind, body, err := readFrame(bytes.NewReader(buf[:n]))
		if err == nil {
			// The header fit: the truncation must then fail body decode.
			if kind != frameData {
				t.Fatalf("prefix %d: kind = %d", n, kind)
			}
			if _, derr := decodeData(body); derr == nil {
				t.Fatalf("prefix %d/%d accepted as a complete frame", n, len(buf))
			}
			continue
		}
		if n == 0 && err != io.EOF {
			t.Fatalf("empty stream: err = %v, want io.EOF", err)
		}
		if n > 0 && err == io.EOF {
			t.Fatalf("prefix %d: mid-frame truncation reported io.EOF (reads as orderly close)", n)
		}
	}
}

// TestFrameTrailingBytesRejected: a frame whose body outlives its payload is
// corrupt, not extensible.
func TestFrameTrailingBytesRejected(t *testing.T) {
	fr := &Frame{Payload: []int{1}}
	buf, err := encodeData(fr)
	if err != nil {
		t.Fatal(err)
	}
	grown := append(append([]byte{}, buf...), 0xAA)
	binary.LittleEndian.PutUint32(grown[:4], uint32(len(grown)-4))
	_, body, err := readFrame(bytes.NewReader(grown))
	if err != nil {
		t.Fatal(err)
	}
	if _, derr := decodeData(body); derr == nil {
		t.Fatal("decodeData accepted a frame with trailing bytes")
	}
}

func TestFrameLengthBounds(t *testing.T) {
	for _, n := range []uint32{0, maxFrameBody + 1} {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], n)
		if _, _, err := readFrame(bytes.NewReader(hdr[:])); err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("length %d: err = %v, want out-of-range error", n, err)
		}
	}
}

// TestFrameCorruptCountRejected plants an element count far beyond the body
// size; the decoder must reject it before allocating.
func TestFrameCorruptCountRejected(t *testing.T) {
	fr := &Frame{Payload: []float64{1, 2}}
	buf, err := encodeData(fr)
	if err != nil {
		t.Fatal(err)
	}
	// The payload element count is the last u32 before the elements.
	countOff := len(buf) - 2*8 - 4
	binary.LittleEndian.PutUint32(buf[countOff:], 1<<30)
	_, body, err := readFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, derr := decodeData(body); derr == nil {
		t.Fatal("decodeData accepted an element count larger than the body")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := hello{session: 0xdeadbeefcafe, size: 8, rank: 5}
	_, body, err := readFrame(bytes.NewReader(encodeHello(in)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeHello(body)
	if err != nil {
		t.Fatal(err)
	}
	if got != in {
		t.Fatalf("hello round trip = %+v, want %+v", got, in)
	}
}

func TestHelloRejectsForeignMagicAndVersion(t *testing.T) {
	buf := encodeHello(hello{session: 1, size: 2, rank: 0})
	bad := append([]byte{}, buf...)
	bad[5] = 0xFF // first magic byte (after length prefix and kind)
	if _, err := decodeHello(bad[5:]); err == nil {
		t.Fatal("decodeHello accepted corrupt magic")
	}
	vbad := append([]byte{}, buf...)
	vbad[9] = helloVersion + 1
	if _, err := decodeHello(vbad[5:]); err == nil {
		t.Fatal("decodeHello accepted an unknown protocol version")
	}
}

func TestAbortRoundTrip(t *testing.T) {
	in := &FaultError{Kind: FaultCrash, Rank: 2, Peer: 1, Tag: 9, Seed: 42}
	_, body, err := readFrame(bytes.NewReader(encodeAbort(in)))
	if err != nil {
		t.Fatal(err)
	}
	fe, msg, err := decodeAbort(body)
	if err != nil {
		t.Fatal(err)
	}
	if fe.Kind != in.Kind || fe.Rank != in.Rank || fe.Peer != in.Peer || fe.Tag != in.Tag || fe.Seed != in.Seed {
		t.Fatalf("abort round trip = %+v, want %+v", fe, in)
	}
	if msg != in.Error() {
		t.Fatalf("abort message = %q, want %q", msg, in.Error())
	}
}

// FuzzFrameCodec explores the two halves of the codec contract. The decode
// half: arbitrary bytes must never panic and never yield a frame AND an
// error. The round-trip half: a frame built from the fuzzed words must come
// back bitwise identical through the full stream path, and every truncation
// of its encoding must be rejected.
func FuzzFrameCodec(f *testing.F) {
	f.Add(uint64(1), int64(0), uint64(0), []byte{1, 2, 3})
	f.Add(uint64(0), int64(-1), uint64(9), []byte{})
	f.Add(uint64(1<<40), int64(1<<30), uint64(1<<20), []byte{0xff, 0, 0x7f, 8, 8, 8, 8, 8, 8})
	f.Fuzz(func(t *testing.T, ctx uint64, tag int64, seq uint64, raw []byte) {
		// Decode half: raw bytes as a frame body.
		if fr, err := decodeData(raw); fr != nil && err != nil {
			t.Fatalf("decodeData returned both a frame and an error: %v", err)
		}
		// Round-trip half: a payload derived from raw — a []float64, a
		// []byte, a []int32 or a []string, picked by seq — all frame words
		// set.
		vals := make([]float64, 0, len(raw)/2)
		ints := make([]int32, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			vals = append(vals, float64(int(raw[i])-int(raw[i+1]))/3.0)
			ints = append(ints, int32(raw[i])<<24-int32(raw[i+1]))
		}
		payloads := []any{vals, append([]byte{}, raw...), ints, []string{string(raw), ""}}
		fr := &Frame{Ctx: ctx, Src: 1, Dst: 2, Tag: int(tag), Seq: seq,
			Hold: int(seq % 7), Reorder: seq / 3, Payload: payloads[seq%uint64(len(payloads))]}
		buf, err := encodeData(fr)
		if err != nil {
			t.Fatalf("encodeData: %v", err)
		}
		kind, body, err := readFrame(bytes.NewReader(buf))
		if err != nil || kind != frameData {
			t.Fatalf("readFrame: kind=%d err=%v", kind, err)
		}
		got, err := decodeData(body)
		if err != nil {
			t.Fatalf("decodeData: %v", err)
		}
		if !reflect.DeepEqual(got, fr) {
			t.Fatalf("round trip = %#v, want %#v", got, fr)
		}
		if len(buf) > 4 {
			if _, derr := decodeData(body[:len(body)-1]); derr == nil {
				t.Fatal("decodeData accepted a truncated body")
			}
		}
	})
}
