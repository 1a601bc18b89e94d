// Package cpufeat reports the CPU capabilities the assembly kernels are
// selected on: AVX2 for the host codec (internal/core, internal/quant) and
// AVX512 for the host codec's decoder (internal/core) and the cache key's
// lane hash (internal/chunkcache). They are
// probed once, at package initialisation, with CPUID and XGETBV directly:
// the module depends on nothing outside the standard library, and the
// standard library's own probe (internal/cpu) is not importable.
package cpufeat
