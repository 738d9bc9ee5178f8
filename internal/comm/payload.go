package comm

import (
	"fmt"
	"math"
)

// Elem is the wire payload set. A point-to-point payload is a slice of one
// of these ten types, and so is every collective's buffer. The types are
// exact: a slice of a named type such as `type celsius float64` is outside
// the set. A collective over any other type is a compile error; Send panics
// on any other payload, naming its type, before it reaches a transport, so
// such a program fails the same way on every transport.
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

// kind is everything comm does with one payload kind, a slice of one Elem
// type: copy it for Send, account its bytes, and encode and decode it for
// the tcp transport.
type kind struct {
	clone func(any) any
	bytes func(any) int64
	put   func(*wbuf, any)
	get   func(*rbuf) any
}

// kinds is the payload set, one row per Elem type, indexed by payload code.
var kinds = [...]kind{
	pF64s: newKind(8, func(w *wbuf, x float64) { w.u64(math.Float64bits(x)) },
		func(r *rbuf) float64 { return math.Float64frombits(r.u64()) }),
	pF32s: newKind(4, func(w *wbuf, x float32) { w.u32(math.Float32bits(x)) },
		func(r *rbuf) float32 { return math.Float32frombits(r.u32()) }),
	pInts: newKind(8, func(w *wbuf, x int) { w.i64(int64(x)) },
		func(r *rbuf) int { return int(r.i64()) }),
	pI64s: newKind(8, (*wbuf).i64, (*rbuf).i64),
	pI32s: newKind(4, func(w *wbuf, x int32) { w.u32(uint32(x)) },
		func(r *rbuf) int32 { return int32(r.u32()) }),
	pBytes: newKind(1, (*wbuf).u8, (*rbuf).u8),
	pBools: newKind(1, func(w *wbuf, x bool) {
		if x {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}, func(r *rbuf) bool { return r.u8() != 0 }),
	pC128s: newKind(16, func(w *wbuf, x complex128) {
		w.u64(math.Float64bits(real(x)))
		w.u64(math.Float64bits(imag(x)))
	}, func(r *rbuf) complex128 {
		re := math.Float64frombits(r.u64())
		return complex(re, math.Float64frombits(r.u64()))
	}),
	pStrs: stringKind(),
	pC64s: newKind(8, func(w *wbuf, x complex64) {
		w.u32(math.Float32bits(real(x)))
		w.u32(math.Float32bits(imag(x)))
	}, func(r *rbuf) complex64 {
		re := math.Float32frombits(r.u32())
		return complex(re, math.Float32frombits(r.u32()))
	}),
}

// newKind builds the row of []T. size is an element's bytes, both in memory
// and on the wire, and for a string the bytes of its length prefix.
func newKind[T Elem](size int, put func(*wbuf, T), get func(*rbuf) T) kind {
	return kind{
		// A nil slice copies to an empty, non-nil one, as it decodes.
		clone: func(v any) any {
			s := v.([]T)
			out := make([]T, len(s))
			copy(out, s)
			return out
		},
		bytes: func(v any) int64 { return int64(size * len(v.([]T))) },
		put: func(w *wbuf, v any) {
			s := v.([]T)
			w.u32(uint32(len(s)))
			for _, x := range s {
				put(w, x)
			}
		},
		// The count is bounded by the body left at size bytes an element.
		get: func(r *rbuf) any {
			out := make([]T, r.count(size))
			for i := range out {
				out[i] = get(r)
			}
			return out
		},
	}
}

// stringKind is the row of []string, whose accounted bytes are its strings'
// lengths.
func stringKind() kind {
	k := newKind(4, (*wbuf).str, (*rbuf).str)
	k.bytes = func(v any) int64 {
		var t int64
		for _, s := range v.([]string) {
			t += int64(len(s))
		}
		return t
	}
	return k
}

// kindOf returns the code of v's payload kind and panics, naming v's type,
// when v is outside the payload set. TestCodecPayloadsAreElem holds its
// cases, and TestFrameDataRoundTrip their rows in kinds, to the Elem union.
func kindOf(v any) byte {
	switch v.(type) {
	case []float64:
		return pF64s
	case []float32:
		return pF32s
	case []int:
		return pInts
	case []int64:
		return pI64s
	case []int32:
		return pI32s
	case []byte:
		return pBytes
	case []bool:
		return pBools
	case []complex128:
		return pC128s
	case []string:
		return pStrs
	case []complex64:
		return pC64s
	}
	panic(fmt.Sprintf("comm: payload of type %T is outside the wire payload set (a slice of a comm.Elem type)", v))
}

// copyPayload copies a payload so that sender and receiver never alias
// memory, as on a real network.
func copyPayload(data any) any { return kinds[kindOf(data)].clone(data) }

// payloadBytes is the size Stats, the trace and the tcp frame hint account
// for a payload: its elements at their in-memory size, or a []string's
// string lengths. ODIN's control messages are core.Control's []byte
// descriptors, an opcode byte and a few int64 parameters, so they stay
// "tens of bytes" as the paper describes.
func payloadBytes(data any) int64 { return kinds[kindOf(data)].bytes(data) }

// encodePayload writes the payload's code and then its count and elements.
func encodePayload(w *wbuf, v any) {
	code := kindOf(v)
	w.u8(code)
	kinds[code].put(w, v)
}

// decodePayload reads what encodePayload wrote. An unknown code is an
// error, never a payload.
func decodePayload(r *rbuf) any {
	code := r.u8()
	if r.err != nil {
		return nil
	}
	if code < pF64s || int(code) >= len(kinds) {
		r.err = fmt.Errorf("comm: unknown payload type code %d", code)
		return nil
	}
	return kinds[code].get(r)
}
