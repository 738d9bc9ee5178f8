package comm

import (
	"encoding/binary"
	"fmt"
	"io"
)

// This file is the wire codec of the tcp transport: length-prefixed binary
// frames, little-endian throughout. Every frame is
//
//	[4B body length][1B frame kind][body ...]
//
// Data frames carry one comm Frame — context, ranks, tag, the fault-layer
// sequence/hold/reorder words, and a payload. The payload codec (payload.go)
// encodes each kind of the payload set, a slice of a comm.Elem type, and
// keeps its element type, so a receive's type check behaves identically on
// every transport. There is no other payload.

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

// helloVersion changes with the frame layout or the payload codes, so a
// peer built from other codes fails the handshake instead of misdecoding.
const (
	helloMagic   uint32 = 0x4f44494e // "ODIN"
	helloVersion byte   = 3
)

// ---- buffer helpers -----------------------------------------------------

type wbuf struct{ b []byte }

func (w *wbuf) u8(v byte)    { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wbuf) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wbuf) i64(v int64)  { w.u64(uint64(v)) }
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
func encodeData(fr *Frame) []byte {
	w := newFrameBuf(frameData, 64+int(fr.data.bytes()))
	w.u64(fr.Ctx)
	w.u32(uint32(fr.Src))
	w.u32(uint32(fr.Dst))
	w.i64(int64(fr.Tag))
	w.u64(fr.Seq)
	w.u32(uint32(fr.Hold))
	w.u64(fr.Reorder)
	fr.data.put(w)
	return finishFrame(w)
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
	fr.data = decodePayload(r)
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
