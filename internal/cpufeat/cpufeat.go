// Package cpufeat reports the one CPU capability the host codec's vector
// kernels (internal/core, internal/quant) are selected on. It is probed
// once, at package initialisation, with CPUID and XGETBV directly: the
// module depends on nothing outside the standard library, and the
// standard library's own probe (internal/cpu) is not importable.
package cpufeat
