package comm

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
)

// This file is the wire codec of the tcp transport: length-prefixed binary
// frames, little-endian throughout. Every frame is
//
//	[4B body length][1B frame kind][body ...]
//
// Data frames carry one comm Frame — context, ranks, tag, the fault-layer
// sequence/hold/reorder words, and a typed payload. The payload codec
// (encodePayload) encodes nine slice types natively and keeps their concrete
// Go type, so receiver-side type assertions (`.([]float64)` and friends)
// behave identically on every transport. Anything else — scalars, structs,
// named slice types — rides an encoding/gob fallback: gob keeps every basic
// type as it is, and any other type must be gob-registered by the caller.

// Frame kinds.
const (
	frameHello byte = iota + 1 // handshake: magic, version, session, size, rank
	frameData                  // one point-to-point message
	frameAbort                 // session abort broadcast (FaultError)
	frameBye                   // orderly goodbye before close
)

// maxFrameBody bounds a frame body; decode rejects anything larger before
// allocating, so a corrupt length prefix cannot OOM the process.
const maxFrameBody = 1 << 28

const (
	helloMagic   uint32 = 0x4f44494e // "ODIN"
	helloVersion byte   = 2
)

// Payload type codes: nil, the nine slice types of the wire payload set, and
// the gob fallback.
const (
	pNil byte = iota
	pF64s
	pF32s
	pInts
	pI64s
	pI32s
	pBytes
	pBools
	pC128s
	pStrs
	pGob byte = 255
)

// ---- buffer helpers -----------------------------------------------------

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)  { w.u64(uint64(v)) }
func (w *wbuf) raw(p []byte) { w.b = append(w.b, p...) }
func (w *wbuf) str(s string) { w.u32(uint32(len(s))); w.b = append(w.b, s...) }

// rbuf is a bounds-checked reader over one frame body. The first short read
// latches err; every later read returns zeros, so decoders can run straight
// through and check err once. Truncated or corrupt frames therefore always
// surface as errors, never as panics.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("comm: truncated frame body (%d bytes, offset %d)", len(r.b), r.off)
	}
}

func (r *rbuf) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) i64() int64 { return int64(r.u64()) }

func (r *rbuf) raw(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *rbuf) str() string { return string(r.raw(int(r.u32()))) }

// count reads a u32 element count and sanity-bounds it against the bytes
// actually remaining, so a corrupt count cannot force a huge allocation.
func (r *rbuf) count(elemSize int) int {
	n := int(r.u32())
	if elemSize > 0 && r.err == nil && n > (len(r.b)-r.off)/elemSize {
		r.fail()
		return 0
	}
	return n
}

// ---- frame encode / decode ---------------------------------------------

// finishFrame patches the 4-byte length prefix reserved at the start of w.
func finishFrame(w *wbuf) []byte {
	binary.LittleEndian.PutUint32(w.b[:4], uint32(len(w.b)-4))
	return w.b
}

func newFrameBuf(kind byte, sizeHint int) *wbuf {
	w := &wbuf{b: make([]byte, 4, 4+1+sizeHint)}
	w.u8(kind)
	return w
}

// encodeData renders one data frame, length prefix included.
func encodeData(fr *Frame) ([]byte, error) {
	w := newFrameBuf(frameData, 64+int(payloadBytes(fr.Payload)))
	w.u64(fr.Ctx)
	w.u32(uint32(fr.Src))
	w.u32(uint32(fr.Dst))
	w.i64(int64(fr.Tag))
	w.u64(fr.Seq)
	w.u32(uint32(fr.Hold))
	w.u64(fr.Reorder)
	if err := encodePayload(w, fr.Payload); err != nil {
		return nil, err
	}
	return finishFrame(w), nil
}

// decodeData parses a data frame body (kind byte already consumed).
func decodeData(body []byte) (*Frame, error) {
	r := &rbuf{b: body}
	fr := &Frame{
		Ctx:     r.u64(),
		Src:     int(r.u32()),
		Dst:     int(r.u32()),
		Tag:     int(r.i64()),
		Seq:     r.u64(),
		Hold:    int(r.u32()),
		Reorder: r.u64(),
	}
	fr.Payload = decodePayload(r)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("comm: data frame has %d trailing bytes", len(body)-r.off)
	}
	return fr, nil
}

// hello is the handshake exchanged on every new connection, both directions.
type hello struct {
	session uint64
	size    int
	rank    int
}

func encodeHello(h hello) []byte {
	w := newFrameBuf(frameHello, 21)
	w.u32(helloMagic)
	w.u8(helloVersion)
	w.u64(h.session)
	w.u32(uint32(h.size))
	w.u32(uint32(h.rank))
	return finishFrame(w)
}

func decodeHello(body []byte) (hello, error) {
	r := &rbuf{b: body}
	magic := r.u32()
	version := r.u8()
	h := hello{session: r.u64(), size: int(r.u32()), rank: int(r.u32())}
	if r.err != nil {
		return hello{}, r.err
	}
	if magic != helloMagic {
		return hello{}, fmt.Errorf("comm: handshake magic %#x, want %#x", magic, helloMagic)
	}
	if version != helloVersion {
		return hello{}, fmt.Errorf("comm: handshake version %d, want %d", version, helloVersion)
	}
	return h, nil
}

// encodeAbort flattens a FaultError for the session-abort broadcast. The
// cause chain is collapsed into the message string: peers only need the
// typed root fields plus a human-readable reason.
func encodeAbort(fe *FaultError) []byte {
	w := newFrameBuf(frameAbort, 64)
	w.i64(int64(fe.Kind))
	w.i64(int64(fe.Rank))
	w.i64(int64(fe.Peer))
	w.i64(int64(fe.Tag))
	w.i64(fe.Seed)
	w.str(fe.Error())
	return finishFrame(w)
}

func decodeAbort(body []byte) (*FaultError, string, error) {
	r := &rbuf{b: body}
	fe := &FaultError{
		Kind: FaultKind(r.i64()),
		Rank: int(r.i64()),
		Peer: int(r.i64()),
		Tag:  int(r.i64()),
		Seed: r.i64(),
	}
	msg := r.str()
	if r.err != nil {
		return nil, "", r.err
	}
	return fe, msg, nil
}

func encodeBye() []byte {
	return finishFrame(newFrameBuf(frameBye, 0))
}

// readFrame reads one length-prefixed frame from r and returns its kind and
// body. io.EOF is returned untouched when the stream ends cleanly between
// frames; a stream ending mid-frame surfaces as ErrUnexpectedEOF.
func readFrame(r io.Reader) (byte, []byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n < 1 || n > maxFrameBody {
		return 0, nil, fmt.Errorf("comm: frame body length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// ---- payload codec ------------------------------------------------------

// encodePayload writes the payload code and body. The nine slice types below
// are the wire payload set; any other value rides the gob fallback.
func encodePayload(w *wbuf, v any) error {
	switch p := v.(type) {
	case nil:
		w.u8(pNil)
	case []float64:
		putSlice(w, pF64s, p, func(w *wbuf, x float64) { w.u64(math.Float64bits(x)) })
	case []float32:
		putSlice(w, pF32s, p, func(w *wbuf, x float32) { w.u32(math.Float32bits(x)) })
	case []int:
		putSlice(w, pInts, p, func(w *wbuf, x int) { w.i64(int64(x)) })
	case []int64:
		putSlice(w, pI64s, p, (*wbuf).i64)
	case []int32:
		putSlice(w, pI32s, p, func(w *wbuf, x int32) { w.u32(uint32(x)) })
	case []byte:
		putSlice(w, pBytes, p, (*wbuf).u8)
	case []bool:
		putSlice(w, pBools, p, func(w *wbuf, x bool) {
			if x {
				w.u8(1)
			} else {
				w.u8(0)
			}
		})
	case []complex128:
		putSlice(w, pC128s, p, func(w *wbuf, x complex128) {
			w.u64(math.Float64bits(real(x)))
			w.u64(math.Float64bits(imag(x)))
		})
	case []string:
		putSlice(w, pStrs, p, (*wbuf).str)
	default:
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(&v); err != nil {
			return fmt.Errorf("comm: payload type %T not wire-encodable (gob: %v); gob.Register it or use a supported slice type", v, err)
		}
		w.u8(pGob)
		w.u32(uint32(b.Len()))
		w.raw(b.Bytes())
	}
	return nil
}

func decodePayload(r *rbuf) any {
	switch t := r.u8(); t {
	case pNil:
		return nil
	case pF64s:
		return getSlice(r, 8, func(r *rbuf) float64 { return math.Float64frombits(r.u64()) })
	case pF32s:
		return getSlice(r, 4, func(r *rbuf) float32 { return math.Float32frombits(r.u32()) })
	case pInts:
		return getSlice(r, 8, func(r *rbuf) int { return int(r.i64()) })
	case pI64s:
		return getSlice(r, 8, (*rbuf).i64)
	case pI32s:
		return getSlice(r, 4, func(r *rbuf) int32 { return int32(r.u32()) })
	case pBytes:
		return getSlice(r, 1, (*rbuf).u8)
	case pBools:
		return getSlice(r, 1, func(r *rbuf) bool { return r.u8() != 0 })
	case pC128s:
		return getSlice(r, 16, func(r *rbuf) complex128 {
			re := math.Float64frombits(r.u64())
			return complex(re, math.Float64frombits(r.u64()))
		})
	case pStrs:
		return getSlice(r, 4, (*rbuf).str)
	case pGob:
		p := r.raw(r.count(1))
		if r.err != nil {
			return nil
		}
		var v any
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&v); err != nil {
			r.err = fmt.Errorf("comm: gob payload: %v", err)
			return nil
		}
		return v
	default:
		r.err = fmt.Errorf("comm: unknown payload type code %d", t)
		return nil
	}
}

// putSlice writes one slice payload: its code, a u32 element count, then the
// elements.
func putSlice[T any](w *wbuf, code byte, p []T, put func(*wbuf, T)) {
	w.u8(code)
	w.u32(uint32(len(p)))
	for _, x := range p {
		put(w, x)
	}
}

// getSlice reads the count and elements putSlice wrote. size is the fewest
// bytes an element takes on the wire, which bounds the count by the body
// left. A nil slice comes back empty and non-nil.
func getSlice[T any](r *rbuf, size int, get func(*rbuf) T) []T {
	out := make([]T, r.count(size))
	for i := range out {
		out[i] = get(r)
	}
	return out
}
