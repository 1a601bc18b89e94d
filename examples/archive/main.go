// Archive: the file-based workflow — write a field to disk under the
// SDRBench naming convention, scan the directory, load the field with its
// dims recovered from the name, compress it, and verify the bound. This is
// the path a user with the real SDRBench archives follows.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ceresz/internal/core"
	"ceresz/internal/datasets"
	"ceresz/internal/metrics"
	"ceresz/internal/quant"
	"ceresz/internal/sdrbench"
)

func main() {
	dir, err := os.MkdirTemp("", "ceresz-archive")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Produce a Hurricane-like field file named the SDRBench way:
	// name_[slowest…fastest].f32.
	ds, err := datasets.ByName("Hurricane", datasets.Small)
	if err != nil {
		log.Fatal(err)
	}
	f := &ds.Fields[0]
	data := f.Data(7)
	name := fmt.Sprintf("%s_%d_%d_%d.f32", f.Name, f.Dims.Nz, f.Dims.Ny, f.Dims.Nx)
	if err := sdrbench.WriteF32(filepath.Join(dir, name), data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d elements)\n", name, len(data))

	// Scan the directory as a user with real archives would.
	fields, err := sdrbench.Scan(dir)
	if err != nil {
		log.Fatal(err)
	}
	for _, fld := range fields {
		field, loaded, err := sdrbench.Load(fld.Path)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded %s: dims %dx%dx%d recovered from the file name\n",
			field.Name, field.Dims.Nx, field.Dims.Ny, field.Dims.Nz)

		minV, maxV := quant.Range(loaded)
		eps, err := quant.REL(1e-3).Resolve(minV, maxV)
		if err != nil {
			log.Fatal(err)
		}

		comp, st, err := core.CompressWithEps(nil, loaded, eps, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compressed: %d bytes (ratio %.2f)\n", len(comp), st.Ratio())

		rec, _, err := core.Decompress(nil, comp, 1)
		if err != nil {
			log.Fatal(err)
		}
		maxErr, err := metrics.MaxAbsError(loaded, rec)
		if err != nil {
			log.Fatal(err)
		}
		psnr, err := metrics.PSNR(loaded, rec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round trip: max |error| %.3g ≤ ε %.3g (%v), PSNR %.2f dB\n",
			maxErr, eps, maxErr <= eps, psnr)
	}
}
