// Package kerneltest is the test plumbing shared by the packages whose hot
// loops have assembly kernels chosen once from CPUID (internal/core,
// internal/quant, internal/chunkcache): naming each kernel set a package
// has, switching the package onto it, and, on Linux, placing data flush
// against inaccessible pages so that a kernel's stray read faults. Only
// _test.go files import it.
package kerneltest

import "testing"

// A Set is one kernel set of a package: the name its subtests carry and
// the values it gives the package's dispatch flags.
type Set struct {
	Name string
	// Have reports whether this build and CPU can run the set.
	Have bool
	// Flags are the package's dispatch variables and On the value the set
	// gives each, pairwise.
	Flags []*bool
	On    []bool
}

// Use switches the package onto s and returns the function that switches
// it back.
func (s Set) Use() (restore func()) {
	was := make([]bool, len(s.Flags))
	for i, p := range s.Flags {
		was[i], *p = *p, s.On[i]
	}
	return func() {
		for i, p := range s.Flags {
			*p = was[i]
		}
	}
}

// Each runs f as a subtest on every set the host has, in order, with the
// package switched onto it. It logs each set the host lacks, so that a
// run which could not test a kernel says so. Not for parallel subtests:
// the flags are package state.
func Each(t *testing.T, sets []Set, f func(t *testing.T)) {
	t.Helper()
	for _, s := range sets {
		if !s.Have {
			t.Logf("kernel set %s skipped: this build or CPU cannot run it", s.Name)
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			defer s.Use()()
			f(t)
		})
	}
}
