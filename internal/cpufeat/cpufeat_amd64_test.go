//go:build amd64 && !purego

package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// kernelFlags returns the flags line of /proc/cpuinfo, space-terminated so
// that " name " matches whole flags only.
func kernelFlags(t *testing.T) string {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare against")
	}
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			return line + " "
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
	return ""
}

// TestAVX2MatchesKernel checks the probe against the kernel's own view of
// the CPU where one is readable.
func TestAVX2MatchesKernel(t *testing.T) {
	want := strings.Contains(kernelFlags(t), " avx2 ")
	if AVX2 != want {
		t.Fatalf("AVX2 probe = %v, /proc/cpuinfo says %v", AVX2, want)
	}
}

// TestAVX512MatchesKernel does the same for the two AVX-512 subsets the
// probe asks for; the kernel lists them only when it saves the ZMM state.
func TestAVX512MatchesKernel(t *testing.T) {
	flags := kernelFlags(t)
	want := strings.Contains(flags, " avx512f ") && strings.Contains(flags, " avx512bw ")
	if AVX512 != want {
		t.Fatalf("AVX512 probe = %v, /proc/cpuinfo says avx512f and avx512bw: %v", AVX512, want)
	}
}
