//go:build amd64 && !purego

package cpufeat

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2MatchesKernel checks the probe against the kernel's own view of
// the CPU where one is readable.
func TestAVX2MatchesKernel(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo to compare against")
	}
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			want := strings.Contains(line+" ", " avx2 ")
			if AVX2 != want {
				t.Fatalf("AVX2 probe = %v, /proc/cpuinfo says %v", AVX2, want)
			}
			return
		}
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
