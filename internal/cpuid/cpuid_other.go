//go:build !amd64

package cpuid

// AVX2 is false off amd64: there is no AVX2 to probe for.
func AVX2() bool { return false }

// FMA is false off amd64: there is no FMA3 to probe for.
func FMA() bool { return false }
