package cpuid

// AVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches (CPUID and XGETBV, in
// cpuid_amd64.s).
func AVX2() bool

// FMA reports whether the CPU implements the FMA3 fused multiply-add
// instructions and the operating system saves the YMM registers — the test
// behind the Go runtime's own FMA flag (cpuid_amd64.s).
func FMA() bool
