// Package iodist implements parallel file IO for distributed arrays
// (paper §III.H): every rank writes and reads exactly its own slabs of a
// shared binary file, with no gather through a master rank. The format is a
// fixed self-describing header followed by the array body in global
// row-major order, so files written under one distribution or rank count
// load correctly under any other.
package iodist

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/dense"
)

var magic = [4]byte{'O', 'D', 'N', '1'}

// dtype codes stored in the header.
const (
	dtFloat64 uint32 = 1
	dtInt64   uint32 = 2
)

func dtypeOf[T dense.Elem]() (uint32, error) {
	var z T
	switch any(z).(type) {
	case float64:
		return dtFloat64, nil
	case int64:
		return dtInt64, nil
	default:
		return 0, fmt.Errorf("iodist: unsupported element type %T (float64 and int64 files only)", z)
	}
}

// headerSize returns the byte length of the header for ndim dimensions.
func headerSize(ndim int) int64 {
	// magic + version + dtype + ndim + dims.
	return int64(4 + 4 + 4 + 4 + 8*ndim)
}

func encodeHeader(dtype uint32, shape []int) []byte {
	buf := make([]byte, headerSize(len(shape)))
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:], 1) // version
	binary.LittleEndian.PutUint32(buf[8:], dtype)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(shape)))
	for d, s := range shape {
		binary.LittleEndian.PutUint64(buf[16+8*d:], uint64(s))
	}
	return buf
}

func decodeHeader(f *os.File) (dtype uint32, shape []int, err error) {
	fixed := make([]byte, 16)
	if _, err := f.ReadAt(fixed, 0); err != nil {
		return 0, nil, fmt.Errorf("iodist: short header: %w", err)
	}
	if [4]byte(fixed[0:4]) != magic {
		return 0, nil, fmt.Errorf("iodist: bad magic %q", fixed[0:4])
	}
	if v := binary.LittleEndian.Uint32(fixed[4:]); v != 1 {
		return 0, nil, fmt.Errorf("iodist: unsupported version %d", v)
	}
	dtype = binary.LittleEndian.Uint32(fixed[8:])
	ndim := int(binary.LittleEndian.Uint32(fixed[12:]))
	if ndim <= 0 || ndim > 32 {
		return 0, nil, fmt.Errorf("iodist: implausible ndim %d", ndim)
	}
	dims := make([]byte, 8*ndim)
	if _, err := f.ReadAt(dims, 16); err != nil {
		return 0, nil, fmt.Errorf("iodist: short dims: %w", err)
	}
	shape = make([]int, ndim)
	for d := range shape {
		shape[d] = int(binary.LittleEndian.Uint64(dims[8*d:]))
	}
	return dtype, shape, nil
}

func toBytes[T dense.Elem](vals []T) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		switch x := any(v).(type) {
		case float64:
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
		case int64:
			binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
		}
	}
	return out
}

func fromBytes[T dense.Elem](buf []byte, vals []T) {
	for i := range vals {
		u := binary.LittleEndian.Uint64(buf[8*i:])
		switch p := any(&vals[i]).(type) {
		case *float64:
			*p = math.Float64frombits(u)
		case *int64:
			*p = int64(u)
		}
	}
}

// Save writes a distributed array to path. Rank 0 creates the file and
// writes the header; every rank then writes its own slabs in place with
// WriteAt — the "full control to read or write any arbitrary distributed
// file format" path of §III.H. Collective.
func Save[T dense.Elem](x *core.DistArray[T], path string) error {
	dtype, err := dtypeOf[T]()
	if err != nil {
		return err
	}
	ctx := x.Context()
	ctx.Control(core.OpIO, 1)
	shape := x.Shape()
	hs := headerSize(len(shape))
	var createErr error
	if ctx.Rank() == 0 {
		f, err := os.Create(path)
		if err != nil {
			createErr = err
		} else {
			if _, err := f.WriteAt(encodeHeader(dtype, shape), 0); err != nil {
				createErr = err
			}
			// Pre-size the file so concurrent WriteAt never races the end.
			if err := f.Truncate(hs + int64(x.GlobalSize())*8); err != nil && createErr == nil {
				createErr = err
			}
			f.Close()
		}
	}
	// Propagate rank-0 failure everywhere rather than deadlocking.
	okFlag := 1
	if createErr != nil {
		okFlag = 0
	}
	if got := bcastInt(ctx, okFlag); got == 0 {
		if createErr != nil {
			return fmt.Errorf("iodist: create %s: %w", path, createErr)
		}
		return fmt.Errorf("iodist: create %s failed on rank 0", path)
	}
	ctx.Comm().Barrier()

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("iodist: open for write: %w", err)
	}
	defer f.Close()
	me := ctx.Rank()
	for l := 0; l < x.Map().LocalCount(me); l++ {
		g := x.Map().LocalToGlobal(me, l)
		vals := slabValues(x, l)
		off := hs + globalOffset(shape, x.Axis(), g)*8
		if _, err := f.WriteAt(toBytes(vals), off); err != nil {
			return fmt.Errorf("iodist: write slab %d: %w", g, err)
		}
	}
	ctx.Comm().Barrier() // file complete once everyone returns
	return nil
}

// Load reads a distributed array from path, distributing it according to
// opts (block over axis 0 by default). Collective.
func Load[T dense.Elem](ctx *core.Context, path string, opts ...core.Options) (*core.DistArray[T], error) {
	wantDtype, err := dtypeOf[T]()
	if err != nil {
		return nil, err
	}
	ctx.Control(core.OpIO, 2)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("iodist: open: %w", err)
	}
	defer f.Close()
	dtype, shape, err := decodeHeader(f)
	if err != nil {
		return nil, err
	}
	if dtype != wantDtype {
		return nil, fmt.Errorf("iodist: file dtype code %d, requested %d", dtype, wantDtype)
	}
	defer ctx.SetControlMessages(ctx.SilenceControl())
	x := core.Zeros[T](ctx, shape, opts...)
	hs := headerSize(len(shape))
	slab := slabElems(shape, x.Axis())
	me := ctx.Rank()
	buf := make([]byte, 8*slab)
	vals := make([]T, slab)
	for l := 0; l < x.Map().LocalCount(me); l++ {
		g := x.Map().LocalToGlobal(me, l)
		off := hs + globalOffset(shape, x.Axis(), g)*8
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, fmt.Errorf("iodist: read slab %d: %w", g, err)
		}
		fromBytes(buf, vals)
		setSlab(x, l, vals)
	}
	return x, nil
}

// globalOffset returns the element offset of slab g in global row-major
// order. Only axis 0 keeps slabs contiguous; other axes are rejected at
// save time by slabValues.
func globalOffset(shape []int, axis, g int) int64 {
	slab := slabElems(shape, axis)
	return int64(g) * int64(slab)
}

func slabElems(shape []int, axis int) int {
	n := 1
	for d, s := range shape {
		if d != axis {
			n *= s
		}
	}
	return n
}

func slabValues[T dense.Elem](x *core.DistArray[T], l int) []T {
	if x.Axis() != 0 {
		panic("iodist: only axis-0 distributions are file-mappable")
	}
	a := x.Local()
	slab := slabElems(x.Shape(), 0)
	if a.IsContiguous() {
		return a.Raw()[l*slab : (l+1)*slab]
	}
	return a.Slice(0, dense.Range{Start: l, Stop: l + 1, Step: 1}).Flatten()
}

func setSlab[T dense.Elem](x *core.DistArray[T], l int, vals []T) {
	if x.Axis() != 0 {
		panic("iodist: only axis-0 distributions are file-mappable")
	}
	a := x.Local()
	slab := len(vals)
	if a.IsContiguous() {
		copy(a.Raw()[l*slab:(l+1)*slab], vals)
		return
	}
	view := a.Slice(0, dense.Range{Start: l, Stop: l + 1, Step: 1})
	i := 0
	view.EachIndexed(func(idx []int, _ T) {
		view.Set(vals[i], idx...)
		i++
	})
}

func bcastInt(ctx *core.Context, v int) int {
	return comm.BcastScalar(ctx.Comm(), 0, v)
}
