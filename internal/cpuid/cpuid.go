// Package cpuid is the one CPU feature probe behind the assembly kernels in
// internal/sparse and internal/dense. Each of those packages reads it once,
// at init, into an unexported variable that selects its kernel (and that its
// tests flip to run the portable Go loop on the same host); nothing else in
// the repository looks at CPU features. AVX2 selects every kernel; FMA
// additionally selects dense's exp kernel, which follows the fused
// multiply-add path that math.Exp takes on such a CPU.
package cpuid
