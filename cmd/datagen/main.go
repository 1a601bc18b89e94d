// Command datagen writes the synthetic SDRBench-style datasets to disk as
// raw little-endian float32 files (one file per field), for use with the
// ceresz CLI or external tools.
//
// Usage:
//
//	datagen [-scale small|medium|full] [-out DIR] [dataset...]
//
// With no dataset arguments, all six are generated. The generators run
// with seed 7, cereszbench's default, so the files hold the fields its
// experiments compress.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ceresz/internal/datasets"
	"ceresz/internal/sdrbench"
)

// seed is cereszbench's default generator seed.
const seed = 7

func main() {
	scale := flag.String("scale", "small", "dataset scale: small, medium or full")
	out := flag.String("out", "data", "output directory")
	flag.Parse()

	var sc datasets.Scale
	switch *scale {
	case "small":
		sc = datasets.Small
	case "medium":
		sc = datasets.Medium
	case "full":
		sc = datasets.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	names := flag.Args()
	if len(names) == 0 {
		names = datasets.Names()
	}
	for _, name := range names {
		ds, err := datasets.ByName(name, sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		dir := filepath.Join(*out, strings.ToLower(ds.Name))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i := range ds.Fields {
			f := &ds.Fields[i]
			data := f.Data(seed)
			// SDRBench naming convention: name_[slowest.._fastest].f32, so
			// the dims travel with the file.
			path := filepath.Join(dir, fmt.Sprintf("%s_%s.f32", f.Name, dimsSuffix(f)))
			if err := sdrbench.WriteF32(path, data); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%s: %d elements (%s)\n", path, len(data), dimsString(f))
		}
	}
}

func dimsSuffix(f *datasets.Field) string {
	d := f.Dims
	switch {
	case d.Nz > 1:
		return fmt.Sprintf("%d_%d_%d", d.Nz, d.Ny, d.Nx)
	case d.Ny > 1:
		return fmt.Sprintf("%d_%d", d.Ny, d.Nx)
	default:
		return fmt.Sprintf("%d", d.Nx)
	}
}

func dimsString(f *datasets.Field) string {
	d := f.Dims
	switch {
	case d.Nz > 1:
		return fmt.Sprintf("%dx%dx%d", d.Nx, d.Ny, d.Nz)
	case d.Ny > 1:
		return fmt.Sprintf("%dx%d", d.Nx, d.Ny)
	default:
		return fmt.Sprintf("%d", d.Nx)
	}
}
