// Package core implements ODIN's distributed N-dimensional array — the
// paper's primary contribution. A DistArray couples a dense local segment on
// each rank with a distmap.Map describing how one axis of the global shape
// is distributed. Users interact in the paper's two modes:
//
//   - Global mode: creation routines and whole-array operations that feel
//     like NumPy (Zeros, Linspace, Random, Gather, At). Each global
//     operation issues a small control message from rank 0 to the workers —
//     "very little to no array data ... at most tens of bytes" (§III.B) —
//     which experiments E1/E10 measure.
//   - Local mode: functions registered with RegisterLocal run on each
//     worker against the local segment of the distributed array(s), the
//     analog of the @odin.local decorator (§III.C).
package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"odinhpc/internal/comm"
	"odinhpc/internal/dense"
)

// CtrlTag is the reserved point-to-point tag for ODIN control messages sent
// from the master (rank 0) to workers, mirroring the paper's Fig. 1 star.
// Exported so the odinvet tag registry (internal/analysis/tagregistry) can
// register the control-plane reservation from source.
const CtrlTag = 1 << 30

// OpCode identifies a global operation in a control message.
type OpCode byte

// Control operation codes.
const (
	OpCreate OpCode = iota + 1
	OpUfunc
	OpReduce
	OpSlice
	OpCallLocal
	OpGather
	OpIO
	OpRedistribute
)

// LocalFunc is a worker-side function operating on the local segments of
// one or more distributed arrays, returning the local segment of the result
// (or nil for side-effect-only functions). It may communicate directly with
// other workers through c — the paper's "local functions that communicate
// directly with other worker nodes" escape hatch.
type LocalFunc func(c *comm.Comm, locals ...*dense.Array[float64]) *dense.Array[float64]

// Context is one rank's handle on an ODIN session: the communicator plus
// the registry of local functions and control-traffic accounting.
type Context struct {
	c  *comm.Comm
	mu sync.Mutex
	// locals is the per-rank function registry; RegisterLocal "broadcasts"
	// the function in the sense of Fig. 1 (in-process, registration plus a
	// control message).
	locals      map[string]LocalFunc
	ctrlMsgs    int   // control messages seen by this rank
	ctrlBytes   int64 // control payload bytes seen by this rank
	disableCtrl bool
}

// NewContext wraps a communicator in an ODIN context.
func NewContext(c *comm.Comm) *Context {
	return &Context{c: c, locals: make(map[string]LocalFunc)}
}

// Comm returns the underlying communicator.
func (ctx *Context) Comm() *comm.Comm { return ctx.c }

// Rank returns this rank's index.
func (ctx *Context) Rank() int { return ctx.c.Rank() }

// Size returns the number of ranks.
func (ctx *Context) Size() int { return ctx.c.Size() }

// CtrlStats returns the number of control messages and control payload
// bytes this rank has sent (rank 0) or received (workers).
func (ctx *Context) CtrlStats() (msgs int, bytes int64) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.ctrlMsgs, ctx.ctrlBytes
}

// SetControlMessages toggles the emission of explicit control messages;
// they are on by default. Benchmarks isolating data traffic switch them off.
func (ctx *Context) SetControlMessages(on bool) { ctx.disableCtrl = !on }

// SilenceControl switches control messages off and reports whether they
// were on. A compound operation brackets its internal steps with
// `defer ctx.SetControlMessages(ctx.SilenceControl())`, so one user-visible
// operation issues exactly one control message.
func (ctx *Context) SilenceControl() (wasOn bool) {
	wasOn, ctx.disableCtrl = !ctx.disableCtrl, true
	return wasOn
}

// Control issues one global-operation control message: rank 0 sends a small
// descriptor (opcode + parameters, tens of bytes) to every worker; workers
// receive it. Collective. The descriptor is returned for inspection.
func (ctx *Context) Control(op OpCode, params ...int64) []byte {
	buf := make([]byte, 1+8*len(params))
	buf[0] = byte(op)
	for i, p := range params {
		binary.LittleEndian.PutUint64(buf[1+8*i:], uint64(p))
	}
	if ctx.disableCtrl {
		return buf
	}
	if ctx.c.Rank() == 0 {
		for r := 1; r < ctx.c.Size(); r++ {
			comm.Send(ctx.c, r, CtrlTag, buf)
		}
		ctx.mu.Lock()
		ctx.ctrlMsgs += ctx.c.Size() - 1
		ctx.ctrlBytes += int64(len(buf)) * int64(ctx.c.Size()-1)
		ctx.mu.Unlock()
	} else {
		got := comm.Recv[byte](ctx.c, 0, CtrlTag)
		ctx.mu.Lock()
		ctx.ctrlMsgs++
		ctx.ctrlBytes += int64(len(got))
		ctx.mu.Unlock()
		buf = got
	}
	return buf
}

// DecodeControl splits a control descriptor back into opcode and parameters.
// Test seam: decodes control messages in the protocol tests.
func DecodeControl(buf []byte) (OpCode, []int64) {
	op := OpCode(buf[0])
	params := make([]int64, (len(buf)-1)/8)
	for i := range params {
		params[i] = int64(binary.LittleEndian.Uint64(buf[1+8*i:]))
	}
	return op, params
}

// RegisterLocal registers fn under name on this rank and issues the
// broadcast control message of §III.C ("broadcasts the resulting function
// object to all worker nodes and injects it into their namespace").
// Collective: every rank must register the same name at the same point.
func (ctx *Context) RegisterLocal(name string, fn LocalFunc) {
	ctx.Control(OpCallLocal, int64(len(name)))
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	ctx.locals[name] = fn
}

// CallLocal invokes a registered local function on the local segments of
// the given arrays — the global face of the @odin.local decorator: "when
// called from the global level, a message is broadcast to all worker nodes
// to call their local function" (§III.C). The result, when non-nil, is
// wrapped as a DistArray sharing the first argument's distribution; its
// leading local dimension must therefore match the input's. Collective.
func (ctx *Context) CallLocal(name string, args ...*DistArray[float64]) (*DistArray[float64], error) {
	ctx.Control(OpCallLocal, int64(len(args)))
	ctx.mu.Lock()
	fn, ok := ctx.locals[name]
	ctx.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: local function %q not registered", name)
	}
	locals := make([]*dense.Array[float64], len(args))
	for i, a := range args {
		locals[i] = a.Local()
	}
	out := fn(ctx.c, locals...)
	if out == nil {
		return nil, nil
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("core: local function %q returned data but had no model argument", name)
	}
	model := args[0]
	if out.Dim(model.axis) != model.m.LocalCount(ctx.Rank()) {
		return nil, fmt.Errorf("core: local function %q returned %d rows, distribution expects %d",
			name, out.Dim(model.axis), model.m.LocalCount(ctx.Rank()))
	}
	shape := make([]int, out.NDim())
	for d := 0; d < out.NDim(); d++ {
		shape[d] = out.Dim(d)
	}
	shape[model.axis] = model.shape[model.axis]
	return &DistArray[float64]{ctx: ctx, shape: shape, axis: model.axis, m: model.m, local: out}, nil
}
