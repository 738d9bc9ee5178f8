package comm

// Wire-codec tests: every payload type the tcp transport promises to
// preserve must survive encode -> readFrame -> decode bitwise and with its
// concrete Go type intact (receiver-side type assertions depend on it), and
// every truncated or corrupt frame must surface as an error — never a panic,
// never a silently wrong payload.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"reflect"
	"testing"
)

// codecPayloads is the payload set: an empty and a non-trivial slice of each
// comm.Elem type (TestCodecPayloadsAreElem holds it to that). payloadOf turns
// an entry into the payload a send of it carries.
var codecPayloads = []any{
	[]float64{},
	[]float64{1.5, -2.25, math.Inf(1), math.SmallestNonzeroFloat64},
	[]float32{},
	[]float32{0.5, -7},
	[]int{},
	[]int{0, -1, 1 << 40},
	[]int64{},
	[]int64{math.MinInt64, math.MaxInt64},
	[]int32{},
	[]int32{-5, 6},
	[]byte{},
	[]byte{0, 1, 255},
	[]bool{},
	[]bool{true, false, true},
	[]complex128{},
	[]complex128{complex(1, -2), complex(-3.5, 4.25)},
	[]complex64{},
	[]complex64{complex(1, -2), complex(float32(math.Inf(-1)), 0.25)},
	[]string{},
	[]string{"", "hello", "wor\x00ld"},
}

// testVals is a payload with the test-side views of its []T.
type testVals interface {
	payload
	code() byte
	elems() any
	send(c *Comm, dst, tag int)
	recv(c *Comm, src, tag int) any
}

func (p *vals[T]) code() byte {
	code, _ := codecOf[T]()
	return code
}

func (p *vals[T]) elems() any { return []T(*p) }

// send is Send of the payload's elements; recv is Recv of a []T.
func (p *vals[T]) send(c *Comm, dst, tag int) { Send(c, dst, tag, []T(*p)) }

func (p *vals[T]) recv(c *Comm, src, tag int) any { return Recv[T](c, src, tag) }

// payloadOf holds v, a slice of a comm.Elem type, as a payload.
func payloadOf(v any) testVals {
	switch s := v.(type) {
	case []float64:
		return valsOf(s)
	case []float32:
		return valsOf(s)
	case []int:
		return valsOf(s)
	case []int64:
		return valsOf(s)
	case []int32:
		return valsOf(s)
	case []byte:
		return valsOf(s)
	case []bool:
		return valsOf(s)
	case []complex128:
		return valsOf(s)
	case []complex64:
		return valsOf(s)
	case []string:
		return valsOf(s)
	}
	panic(fmt.Sprintf("%T is outside comm.Elem", v))
}

func valsOf[T Elem](s []T) testVals {
	p := vals[T](s)
	return &p
}

// TestCodecPayloadsAreElem holds codecPayloads to exactly the union that
// declares comm.Elem, each type empty and not, and each a distinct kind.
func TestCodecPayloadsAreElem(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "payload.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Elem" {
			union := ts.Type.(*ast.InterfaceType).Methods.List[0].Type
			for {
				b, ok := union.(*ast.BinaryExpr)
				if !ok {
					break
				}
				want[b.Y.(*ast.Ident).Name] = true
				union = b.X
			}
			want[union.(*ast.Ident).Name] = true
		}
		return true
	})
	if len(kinds) != len(want)+1 {
		t.Fatalf("comm.Elem has %d types and kinds %d rows", len(want), len(kinds)-1)
	}
	empty, full, codes := map[string]bool{}, map[string]bool{}, map[byte]bool{}
	for _, p := range codecPayloads {
		name := reflect.TypeOf(p).Elem().Name()
		if name == "uint8" {
			name = "byte" // reflect names the alias by its target
		}
		if !want[name] {
			t.Errorf("codecPayloads holds a %T, outside comm.Elem", p)
		}
		if reflect.ValueOf(p).Len() == 0 {
			empty[name] = true
		} else {
			full[name] = true
		}
		codes[payloadOf(p).code()] = true
	}
	for name := range want {
		if !empty[name] || !full[name] {
			t.Errorf("codecPayloads lacks an empty or a non-trivial []%s", name)
		}
	}
	if len(codes) != len(want) {
		t.Errorf("codecPayloads spans %d payload kinds, want %d", len(codes), len(want))
	}
}

// encodeRoundTrip pushes fr through the full wire path — encode, frame read
// from a byte stream, decode — exactly as the tcp reader does.
func encodeRoundTrip(t *testing.T, fr *Frame) *Frame {
	t.Helper()
	buf := encodeData(fr)
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
		fr := &Frame{Ctx: 0xfeed, Src: 3, Dst: 1, Tag: 42, Seq: 7, Hold: 2, Reorder: 99, data: payloadOf(payload)}
		got := encodeRoundTrip(t, fr)
		if !reflect.DeepEqual(got, fr) {
			t.Errorf("payload %T: round trip = %#v, want %#v", payload, got, fr)
		}
		if reflect.TypeOf(got.data) != reflect.TypeOf(fr.data) {
			t.Errorf("payload %T: concrete type not preserved, got %T", payload, got.data)
		}
	}
}

// TestFrameNegativeTagRoundTrip pins the wildcard constants: AnySource and
// AnyTag are -1 and a tag may be any int, so the codec must be sign-correct.
func TestFrameNegativeTagRoundTrip(t *testing.T) {
	fr := &Frame{Ctx: 1, Src: 0, Dst: 0, Tag: -1, data: payloadOf([]byte{1})}
	got := encodeRoundTrip(t, fr)
	if got.Tag != -1 {
		t.Fatalf("negative tag round trip = %d, want -1", got.Tag)
	}
}

// TestFrameTruncationRejected feeds every strict prefix of a valid frame to
// the decoder stack; each one must produce an error, never a panic and never
// a frame.
func TestFrameTruncationRejected(t *testing.T) {
	fr := &Frame{Ctx: 2, Src: 1, Dst: 0, Tag: 3, Seq: 4, data: payloadOf([]float64{1, 2, 3})}
	buf := encodeData(fr)
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
	fr := &Frame{data: payloadOf([]int{1})}
	buf := encodeData(fr)
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
	fr := &Frame{data: payloadOf([]float64{1, 2})}
	buf := encodeData(fr)
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

// dataHeader is a data frame body's bytes before its payload code: ctx, src,
// dst, tag, seq, hold and reorder.
const dataHeader = 8 + 4 + 4 + 8 + 8 + 4 + 8

// FuzzFrameCodec explores the two halves of the codec contract. The decode
// half: arbitrary bytes must never panic and never yield a frame AND an
// error, and a body whose payload code names no kind must be an error. The
// round-trip half: a frame built from the fuzzed words must come back
// bitwise identical through the full stream path, and every truncation of
// its encoding must be rejected.
func FuzzFrameCodec(f *testing.F) {
	f.Add(uint64(1), int64(0), uint64(0), []byte{1, 2, 3})
	f.Add(uint64(0), int64(-1), uint64(9), []byte{})
	f.Add(uint64(1<<40), int64(1<<30), uint64(1<<20), []byte{0xff, 0, 0x7f, 8, 8, 8, 8, 8, 8})
	// A data frame body whose payload code, 255, names no kind, followed by
	// a count and four bytes: it must decode to an error.
	f.Add(uint64(7), int64(2), uint64(5), append(make([]byte, dataHeader), 255, 4, 0, 0, 0, 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, ctx uint64, tag int64, seq uint64, raw []byte) {
		// Decode half: raw bytes as a frame body.
		fr, err := decodeData(raw)
		if fr != nil && err != nil {
			t.Fatalf("decodeData returned both a frame and an error: %v", err)
		}
		if len(raw) > dataHeader && (raw[dataHeader] < pF64s || int(raw[dataHeader]) >= len(kinds)) && err == nil {
			t.Fatalf("decodeData accepted payload code %d", raw[dataHeader])
		}
		// Round-trip half: a payload of one of the ten kinds, picked by seq,
		// with its elements derived from raw; all frame words set.
		n := len(raw) / 2
		f64s, f32s, ints, i64s := make([]float64, n), make([]float32, n), make([]int, n), make([]int64, n)
		i32s, bools, c128s, c64s := make([]int32, n), make([]bool, n), make([]complex128, n), make([]complex64, n)
		for i := range n {
			a, b := raw[2*i], raw[2*i+1]
			f64s[i] = float64(int(a)-int(b)) / 3.0
			f32s[i] = float32(a)*0.5 - float32(b)
			ints[i] = int(a)<<56 - int(b)
			i64s[i] = -int64(a)<<40 | int64(b)
			i32s[i] = int32(a)<<24 - int32(b)
			bools[i] = a < b
			c128s[i] = complex(f64s[i], -float64(b))
			c64s[i] = complex(f32s[i], float32(a))
		}
		payloads := []any{f64s, f32s, ints, i64s, i32s, append([]byte{}, raw...), bools, c128s,
			[]string{string(raw), ""}, c64s}
		fr = &Frame{Ctx: ctx, Src: 1, Dst: 2, Tag: int(tag), Seq: seq,
			Hold: int(seq % 7), Reorder: seq / 3, data: payloadOf(payloads[seq%uint64(len(payloads))])}
		buf := encodeData(fr)
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
