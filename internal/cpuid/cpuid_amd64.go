package cpuid

// AVX2 reports whether the CPU implements AVX2 and the operating system
// saves the YMM registers across context switches (CPUID and XGETBV, in
// cpuid_amd64.s).
func AVX2() bool
