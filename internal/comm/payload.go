package comm

import (
	"fmt"
	"math"
)

// Elem is the wire payload set. A point-to-point payload is a slice of one
// of these ten types, and so is every collective's buffer. The types are
// exact: a slice of a named type such as `type celsius float64` is outside
// the set, and a Send or a collective over it is a compile error.
type Elem interface {
	float64 | float32 | int | int64 | int32 | byte | bool | complex128 | complex64 | string
}

// Payload codes on the wire: a payload's code indexes kinds. Code 0 is no
// kind, so a zeroed body never decodes.
const (
	pF64s byte = iota + 1
	pF32s
	pInts
	pI64s
	pI32s
	pBytes
	pBools
	pC128s
	pStrs
	pC64s
)

// kind is a row of the payload set as the tcp reader finds it, by code.
type kind interface {
	decode(r *rbuf) payload
}

// codec is the row of []T: an element's size in memory and on the wire (for
// a string, the bytes of its length prefix), how one element is written and
// read, and the bytes Stats, the trace and the tcp frame hint account for a
// payload.
type codec[T Elem] struct {
	size  int
	put   func(*wbuf, T)
	get   func(*rbuf) T
	bytes func([]T) int64
}

// kinds is the payload set, one row per Elem type, indexed by payload code.
var kinds = [...]kind{
	pF64s: newCodec(8, func(w *wbuf, x float64) { w.u64(math.Float64bits(x)) },
		func(r *rbuf) float64 { return math.Float64frombits(r.u64()) }),
	pF32s: newCodec(4, func(w *wbuf, x float32) { w.u32(math.Float32bits(x)) },
		func(r *rbuf) float32 { return math.Float32frombits(r.u32()) }),
	pInts: newCodec(8, func(w *wbuf, x int) { w.i64(int64(x)) },
		func(r *rbuf) int { return int(r.i64()) }),
	pI64s: newCodec(8, (*wbuf).i64, (*rbuf).i64),
	pI32s: newCodec(4, func(w *wbuf, x int32) { w.u32(uint32(x)) },
		func(r *rbuf) int32 { return int32(r.u32()) }),
	pBytes: newCodec(1, (*wbuf).u8, (*rbuf).u8),
	pBools: newCodec(1, func(w *wbuf, x bool) {
		if x {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}, func(r *rbuf) bool { return r.u8() != 0 }),
	pC128s: newCodec(16, func(w *wbuf, x complex128) {
		w.u64(math.Float64bits(real(x)))
		w.u64(math.Float64bits(imag(x)))
	}, func(r *rbuf) complex128 {
		re := math.Float64frombits(r.u64())
		return complex(re, math.Float64frombits(r.u64()))
	}),
	pStrs: stringCodec(),
	pC64s: newCodec(8, func(w *wbuf, x complex64) {
		w.u32(math.Float32bits(real(x)))
		w.u32(math.Float32bits(imag(x)))
	}, func(r *rbuf) complex64 {
		re := math.Float32frombits(r.u32())
		return complex(re, math.Float32frombits(r.u32()))
	}),
}

// newCodec builds the row of []T, which accounts its elements at size bytes.
func newCodec[T Elem](size int, put func(*wbuf, T), get func(*rbuf) T) *codec[T] {
	return &codec[T]{size: size, put: put, get: get,
		bytes: func(s []T) int64 { return int64(size * len(s)) }}
}

// stringCodec is the row of []string, whose accounted bytes are its strings'
// lengths. ODIN's control messages are core.Control's []byte descriptors, so
// they stay "tens of bytes" as the paper describes.
func stringCodec() *codec[string] {
	k := newCodec(4, (*wbuf).str, (*rbuf).str)
	k.bytes = func(s []string) int64 {
		var t int64
		for _, x := range s {
			t += int64(len(x))
		}
		return t
	}
	return k
}

// codecOf returns the payload code and the row of []T. It is where a type
// parameter meets the table; TestCodecPayloadsAreElem holds the rows to the
// Elem union, so every T finds its row.
func codecOf[T Elem]() (byte, *codec[T]) {
	for code, k := range kinds {
		if c, ok := k.(*codec[T]); ok {
			return byte(code), c
		}
	}
	panic("comm: Elem type without a payload code")
}

// decode reads a payload's count and elements into a fresh buffer. The count
// is bounded by the body left at size bytes an element.
func (k *codec[T]) decode(r *rbuf) payload {
	p := make(vals[T], r.count(k.size))
	for i := range p {
		p[i] = k.get(r)
	}
	return &p
}

// payload is one message's elements, a *vals[T]. A send packs them into a
// buffer that belongs to the destination mailbox (takeVals), so the receiver
// never aliases sender memory; the receive gives the buffer back to the
// mailbox's free list or over to its caller.
type payload interface {
	bytes() int64
	put(w *wbuf)
	keep() bool
	describe() string
}

// vals is a payload of T.
type vals[T Elem] []T

func (p *vals[T]) bytes() int64 {
	_, k := codecOf[T]()
	return k.bytes(*p)
}

// put writes the payload's code, count and elements.
func (p *vals[T]) put(w *wbuf) {
	code, k := codecOf[T]()
	w.u8(code)
	w.u32(uint32(len(*p)))
	for _, x := range *p {
		k.put(w, x)
	}
}

// keep reports whether the buffer may go back to a free list: at most
// maxRecycleBytes, and holding no strings, whose bytes would outlive the
// message.
func (p *vals[T]) keep() bool {
	code, k := codecOf[T]()
	return code != pStrs && cap(*p)*k.size <= maxRecycleBytes
}

// describe names the payload's type and length for a FaultMismatch.
func (p *vals[T]) describe() string { return describe[T](len(*p)) }

// describe names a []T of n elements, or of any length when n < 0.
func describe[T Elem](n int) string {
	if n < 0 {
		return fmt.Sprintf("%T of any length", []T(nil))
	}
	return fmt.Sprintf("%T of %d", []T(nil), n)
}

// decodePayload reads what vals.put wrote. An unknown code is an error,
// never a payload.
func decodePayload(r *rbuf) payload {
	code := r.u8()
	if r.err != nil {
		return nil
	}
	if code < pF64s || int(code) >= len(kinds) {
		r.err = fmt.Errorf("comm: unknown payload type code %d", code)
		return nil
	}
	return kinds[code].decode(r)
}
