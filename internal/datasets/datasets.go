// Package datasets synthesizes deterministic stand-ins for the six
// SDRBench datasets the paper evaluates (Table 4). The real archives are
// multi-gigabyte downloads; every CereSZ result depends on the data only
// through (a) the per-block fixed-length distribution of the quantized
// Lorenzo residuals — which sets the Bit-shuffle cycle cost and the
// compressed block size — and (b) the zero-block fraction. The generators
// below reproduce those statistics per domain:
//
//	CESM-ATM   2D climate fields: smooth large-scale structure + grid noise,
//	           79 fields of widely varying roughness (ratio range 2.7–21.6).
//	Hurricane  3D weather fields: smooth vortical structure, moderate noise.
//	QMCPack    3D orbital densities: oscillatory, relatively noisy (narrow
//	           ratio range ~9.6–19.7 at REL 1e-2).
//	NYX        3D cosmology: a mix of extremely smooth (temperature-like)
//	           and turbulent (velocity-like) fields (ratios up to ~32).
//	RTM        3D seismic wavefields: a localized wavefront in a quiet
//	           volume — many zero blocks (ratio cap hit: 31.99).
//	HACC       1D particle data: positions are per-particle smooth, the
//	           layout is unordered — low smoothness, small ratios (4.7–9.2).
//
// All generators are seeded and reproducible; sizes default to scaled-down
// grids (the full Table 4 dims are available via Full()).
package datasets

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"ceresz/internal/lorenzo"
)

// Field is one named variable of a dataset.
type Field struct {
	// Name identifies the field (e.g. "temperature").
	Name string
	// Dims is the field's grid (row-major, Nx fastest).
	Dims lorenzo.Dims
	// gen fills the field's data deterministically.
	gen func(rng *rand.Rand, d lorenzo.Dims) []float32
}

// Data generates the field's values with the given seed.
func (f *Field) Data(seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed ^ hashName(f.Name)))
	return f.gen(rng, f.Dims)
}

// Elements returns the number of values in the field.
func (f *Field) Elements() int { return f.Dims.Len() }

// Dataset is a named collection of fields from one scientific domain.
type Dataset struct {
	// Name matches the paper's Table 4 (e.g. "CESM-ATM").
	Name string
	// Domain is the science domain label from Table 4.
	Domain string
	// Fields are the dataset's variables.
	Fields []Field
}

// Elements returns the total element count across fields.
func (d *Dataset) Elements() int {
	n := 0
	for i := range d.Fields {
		n += d.Fields[i].Elements()
	}
	return n
}

// Bytes returns the uncompressed size in bytes (float32).
func (d *Dataset) Bytes() int64 { return int64(4 * d.Elements()) }

// Scale controls generated grid sizes.
type Scale int

const (
	// Small is the default test/bench scale (fields of ~10⁴–10⁵ elements).
	Small Scale = iota
	// Medium is the harness scale used for figure regeneration
	// (~10⁵–10⁶ elements per field).
	Medium
	// Full is Table 4's real dimensionality. Heavy: NYX alone is 3 GiB.
	Full
)

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// Names lists the datasets in the paper's Table 4 order.
func Names() []string {
	return []string{"CESM-ATM", "Hurricane", "QMCPack", "NYX", "RTM", "HACC"}
}

// ByName builds the named dataset at the given scale.
func ByName(name string, s Scale) (*Dataset, error) {
	switch strings.ToUpper(name) {
	case "CESM-ATM", "CESM":
		return cesm(s), nil
	case "HURRICANE":
		return hurricane(s), nil
	case "QMCPACK", "QMC":
		return qmcpack(s), nil
	case "NYX":
		return nyx(s), nil
	case "RTM":
		return rtm(s), nil
	case "HACC":
		return hacc(s), nil
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
	}
}

// All builds every dataset at the given scale.
func All(s Scale) []*Dataset {
	out := make([]*Dataset, 0, 6)
	for _, n := range Names() {
		d, err := ByName(n, s)
		if err != nil {
			panic(err) // unreachable: Names() and ByName agree
		}
		out = append(out, d)
	}
	return out
}

func hashName(s string) int64 {
	var h int64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= int64(s[i])
		h *= 1099511628211
	}
	return h
}

// --- Generators ---------------------------------------------------------

// smooth2D builds a 2D field as a sum of low-frequency modes plus white
// noise of relative amplitude noise.
func smooth2D(rng *rand.Rand, d lorenzo.Dims, modes int, noise float64) []float32 {
	type mode struct{ kx, ky, ph, amp float64 }
	ms := make([]mode, modes)
	for i := range ms {
		ms[i] = mode{
			kx:  (rng.Float64()*4 + 0.5) * 2 * math.Pi / float64(d.Nx),
			ky:  (rng.Float64()*4 + 0.5) * 2 * math.Pi / float64(d.Ny),
			ph:  rng.Float64() * 2 * math.Pi,
			amp: rng.Float64() + 0.3,
		}
	}
	out := make([]float32, d.Len())
	for y := 0; y < d.Ny; y++ {
		for x := 0; x < d.Nx; x++ {
			v := 0.0
			for _, m := range ms {
				v += m.amp * math.Sin(m.kx*float64(x)+m.ky*float64(y)+m.ph)
			}
			v += noise * rng.NormFloat64()
			out[y*d.Nx+x] = float32(v)
		}
	}
	return out
}

// smooth3D builds a 3D field of low-frequency modes plus noise.
func smooth3D(rng *rand.Rand, d lorenzo.Dims, modes int, noise float64) []float32 {
	type mode struct{ kx, ky, kz, ph, amp float64 }
	ms := make([]mode, modes)
	for i := range ms {
		ms[i] = mode{
			kx:  (rng.Float64()*3 + 0.5) * 2 * math.Pi / float64(d.Nx),
			ky:  (rng.Float64()*3 + 0.5) * 2 * math.Pi / float64(d.Ny),
			kz:  (rng.Float64()*3 + 0.5) * 2 * math.Pi / float64(max(d.Nz, 2)),
			ph:  rng.Float64() * 2 * math.Pi,
			amp: rng.Float64() + 0.3,
		}
	}
	out := make([]float32, d.Len())
	i := 0
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				v := 0.0
				for _, m := range ms {
					v += m.amp * math.Sin(m.kx*float64(x)+m.ky*float64(y)+m.kz*float64(z)+m.ph)
				}
				v += noise * rng.NormFloat64()
				out[i] = float32(v)
				i++
			}
		}
	}
	return out
}

// wavefront builds an RTM-like snapshot: an expanding spherical wave packet
// in an otherwise zero volume. Most blocks quantize to all-zero.
func wavefront(rng *rand.Rand, d lorenzo.Dims, radiusFrac float64) []float32 {
	cx := float64(d.Nx) / 2
	cy := float64(d.Ny) / 2
	cz := float64(d.Nz) / 2
	r0 := radiusFrac * float64(min(d.Nx, min(d.Ny, max(d.Nz, 2)))) / 2
	thick := r0/15 + 1
	out := make([]float32, d.Len())
	i := 0
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				dx, dy, dz := float64(x)-cx, float64(y)-cy, float64(z)-cz
				r := math.Sqrt(dx*dx + dy*dy + dz*dz)
				u := (r - r0) / thick
				if u > -3 && u < 3 {
					out[i] = float32(math.Exp(-u*u) * math.Cos(3*u) * (1 + 0.02*rng.NormFloat64()))
				}
				i++
			}
		}
	}
	return out
}

// particleWalk builds HACC-like per-particle data: a bounded random walk,
// so neighboring array entries are correlated but jittery.
func particleWalk(rng *rand.Rand, d lorenzo.Dims, step, jitter float64) []float32 {
	out := make([]float32, d.Len())
	v := rng.Float64() * 256
	for i := range out {
		v += step * rng.NormFloat64()
		if v < 0 {
			v = -v
		}
		if v > 256 {
			v = 512 - v
		}
		out[i] = float32(v + jitter*rng.NormFloat64())
	}
	return out
}

// heavyTail3D builds a cosmology-like field v = exp(α·s(x)) for a smooth
// s: a few bright peaks dominate the value range, so under a range-relative
// bound most of the volume quantizes to zero — the regime in which NYX
// fields reach near-cap compression ratios in Table 5.
func heavyTail3D(rng *rand.Rand, d lorenzo.Dims, modes int, alpha, noise float64) []float32 {
	base := smooth3D(rng, d, modes, 0)
	// Normalize the mode sum to roughly [-1, 1].
	var m float32
	for _, v := range base {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	if m == 0 {
		m = 1
	}
	out := make([]float32, len(base))
	for i, v := range base {
		e := math.Exp(alpha * float64(v/m))
		out[i] = float32(e * (1 + noise*rng.NormFloat64()))
	}
	return out
}

// sparse2D builds a precipitation-like field: a smooth field thresholded so
// only its crests survive; the background is exactly zero.
func sparse2D(rng *rand.Rand, d lorenzo.Dims, modes int, threshold, noise float64) []float32 {
	base := smooth2D(rng, d, modes, 0)
	out := make([]float32, len(base))
	for i, v := range base {
		u := float64(v) - threshold
		if u > 0 {
			out[i] = float32(u * u * (1 + noise*rng.NormFloat64()))
		}
	}
	return out
}

// blobs3D builds a field of compact positive Gaussian blobs (rain cells,
// cloud water) over an exactly-zero background; the blobs are localized in
// all three dimensions, so most 32-element runs are entirely zero.
func blobs3D(rng *rand.Rand, d lorenzo.Dims, centers int, sigmaFrac, noise float64) []float32 {
	type blob struct{ cx, cy, cz, sigma, amp float64 }
	bs := make([]blob, centers)
	for i := range bs {
		bs[i] = blob{
			cx:    rng.Float64() * float64(d.Nx),
			cy:    rng.Float64() * float64(d.Ny),
			cz:    rng.Float64() * float64(max(d.Nz, 1)),
			sigma: (0.5 + rng.Float64()) * sigmaFrac * float64(d.Nx),
			amp:   0.5 + rng.Float64(),
		}
	}
	out := make([]float32, d.Len())
	i := 0
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				v := 0.0
				for _, b := range bs {
					dx, dy, dz := float64(x)-b.cx, float64(y)-b.cy, float64(z)-b.cz
					r2 := (dx*dx + dy*dy + dz*dz) / (2 * b.sigma * b.sigma)
					if r2 < 6 {
						v += b.amp * math.Exp(-r2)
					}
				}
				if v != 0 {
					v *= 1 + noise*rng.NormFloat64()
				}
				out[i] = float32(v)
				i++
			}
		}
	}
	return out
}

// orbital3D builds a QMCPack-like orbital density: a handful of localized
// oscillatory blobs (Gaussian envelope × plane wave) over a near-zero
// background.
func orbital3D(rng *rand.Rand, d lorenzo.Dims, centers int, noise float64) []float32 {
	type blob struct{ cx, cy, cz, sigma, k, amp float64 }
	bs := make([]blob, centers)
	for i := range bs {
		bs[i] = blob{
			cx:    rng.Float64() * float64(d.Nx),
			cy:    rng.Float64() * float64(d.Ny),
			cz:    rng.Float64() * float64(max(d.Nz, 1)),
			sigma: (0.035 + 0.04*rng.Float64()) * float64(d.Nx),
			k:     0.5 + rng.Float64(),
			amp:   0.5 + rng.Float64(),
		}
	}
	out := make([]float32, d.Len())
	i := 0
	for z := 0; z < d.Nz; z++ {
		for y := 0; y < d.Ny; y++ {
			for x := 0; x < d.Nx; x++ {
				v := 0.0
				for _, b := range bs {
					dx, dy, dz := float64(x)-b.cx, float64(y)-b.cy, float64(z)-b.cz
					r2 := (dx*dx + dy*dy + dz*dz) / (2 * b.sigma * b.sigma)
					if r2 < 12 {
						v += b.amp * math.Exp(-r2) * math.Cos(b.k*math.Sqrt(r2*2*b.sigma*b.sigma))
					}
				}
				if v != 0 {
					v *= 1 + noise*rng.NormFloat64()
				}
				out[i] = float32(v)
				i++
			}
		}
	}
	return out
}

// --- Dataset definitions -------------------------------------------------

func dims2At(s Scale, fx, fy int) lorenzo.Dims {
	switch s {
	case Full:
		return lorenzo.Dims2(fx, fy)
	case Medium:
		return lorenzo.Dims2(max(fx/4, 16), max(fy/4, 16))
	default:
		return lorenzo.Dims2(max(fx/16, 16), max(fy/16, 16))
	}
}

func dims3At(s Scale, fx, fy, fz int) lorenzo.Dims {
	switch s {
	case Full:
		return lorenzo.Dims3(fx, fy, fz)
	case Medium:
		return lorenzo.Dims3(max(fx/4, 8), max(fy/4, 8), max(fz/4, 8))
	default:
		return lorenzo.Dims3(max(fx/12, 8), max(fy/12, 8), max(fz/12, 8))
	}
}

func cesm(s Scale) *Dataset {
	// Table 4: 79 fields of 1800×3600. We generate a representative subset
	// per scale with noise levels spanning the observed ratio range.
	nFields := map[Scale]int{Small: 8, Medium: 16, Full: 79}[s]
	d := &Dataset{Name: "CESM-ATM", Domain: "Climate Simulation"}
	for i := 0; i < nFields; i++ {
		i := i
		f := Field{Name: fmt.Sprintf("FLD%02d", i), Dims: dims2At(s, 3600, 1800)}
		switch {
		case i%4 == 0:
			// Precipitation-like sparse fields drive the high end of the
			// ratio range (Table 5: up to 21.6 at REL 1e-2).
			f.gen = func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				return sparse2D(rng, dm, 6, 1.5, 0.05)
			}
		default:
			noise := 0.001 * math.Pow(150, float64(i)/float64(max(nFields-1, 1))) // 1e-3 … 0.15
			f.gen = func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				return smooth2D(rng, dm, 6+i%5, noise)
			}
		}
		d.Fields = append(d.Fields, f)
	}
	return d
}

func hurricane(s Scale) *Dataset {
	names := []string{"U", "QV", "P", "QR", "TC", "V", "QC", "W", "QI", "QS", "QG", "CLOUD", "PRECIP"}
	nFields := map[Scale]int{Small: 5, Medium: 13, Full: 13}[s]
	d := &Dataset{Name: "Hurricane", Domain: "Weather Simulation"}
	for i := 0; i < nFields; i++ {
		name := names[i%len(names)]
		f := Field{Name: name, Dims: dims3At(s, 500, 500, 100)}
		if len(name) > 0 && name[0] == 'Q' {
			// Mixing ratios (QV, QC, QR, …) are physically sparse.
			f.gen = func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				return blobs3D(rng, dm, 4, 0.04, 0.03)
			}
		} else {
			noise := 0.002 + 0.012*float64(i)/float64(max(nFields-1, 1))
			f.gen = func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				return smooth3D(rng, dm, 8, noise)
			}
		}
		d.Fields = append(d.Fields, f)
	}
	return d
}

func qmcpack(s Scale) *Dataset {
	d := &Dataset{Name: "QMCPack", Domain: "Quantum Monte Carlo"}
	for i, name := range []string{"einspline", "orbital"} {
		noise := 0.01 + 0.01*float64(i)
		d.Fields = append(d.Fields, Field{
			Name: name,
			Dims: dims3At(s, 69, 69, 288), // full: 33120×69×69 flattened as slabs
			gen: func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				return orbital3D(rng, dm, 4, noise)
			},
		})
	}
	if s == Full {
		for i := range d.Fields {
			d.Fields[i].Dims = lorenzo.Dims3(69, 69, 33120)
		}
	}
	return d
}

func nyx(s Scale) *Dataset {
	d := &Dataset{Name: "NYX", Domain: "Cosmic Simulation"}
	heavy := []struct {
		name  string
		alpha float64
	}{
		// Shock-heated gas and collapsed halos dominate the range; the
		// voids quantize to zero — the near-cap regime of Table 5.
		{"temperature", 15},
		{"dark_matter_density", 20},
		{"baryon_density", 17},
	}
	for _, sp := range heavy {
		sp := sp
		d.Fields = append(d.Fields, Field{
			Name: sp.name,
			Dims: dims3At(s, 512, 512, 512),
			gen: func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				return heavyTail3D(rng, dm, 8, sp.alpha, 0.002)
			},
		})
	}
	for _, name := range []string{"velocity_x", "velocity_y", "velocity_z"} {
		d.Fields = append(d.Fields, Field{
			Name: name,
			Dims: dims3At(s, 512, 512, 512),
			gen: func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				// Velocities concentrate near zero with fast halo tails:
				// cube a smooth field so most of the volume sits within a
				// few percent of the range.
				base := smooth3D(rng, dm, 6, 0)
				var m float32
				for _, v := range base {
					if v < 0 {
						v = -v
					}
					if v > m {
						m = v
					}
				}
				if m == 0 {
					m = 1
				}
				out := make([]float32, len(base))
				for i, v := range base {
					t := float64(v / m)
					out[i] = float32(1e7 * t * t * t * (1 + 0.01*rng.NormFloat64()))
				}
				return out
			},
		})
	}
	return d
}

func rtm(s Scale) *Dataset {
	nFields := map[Scale]int{Small: 4, Medium: 8, Full: 36}[s]
	d := &Dataset{Name: "RTM", Domain: "Seismic Imaging"}
	for i := 0; i < nFields; i++ {
		frac := 0.15 + 0.45*float64(i)/float64(max(nFields-1, 1))
		d.Fields = append(d.Fields, Field{
			Name: fmt.Sprintf("snapshot_%02d", i),
			Dims: dims3At(s, 449, 449, 235),
			gen: func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				return wavefront(rng, dm, frac)
			},
		})
	}
	return d
}

func hacc(s Scale) *Dataset {
	n := map[Scale]int{Small: 1 << 16, Medium: 1 << 20, Full: 280_953_867}[s]
	d := &Dataset{Name: "HACC", Domain: "Cosmic Simulation"}
	specs := []struct {
		name         string
		step, jitter float64
	}{
		{"x", 0.02, 0.0005}, {"y", 0.02, 0.0005}, {"z", 0.02, 0.0005},
	}
	for _, sp := range specs {
		sp := sp
		d.Fields = append(d.Fields, Field{
			Name: sp.name,
			Dims: lorenzo.Dims1(n),
			gen: func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				return particleWalk(rng, dm, sp.step, sp.jitter)
			},
		})
	}
	// Velocities are heavy-tailed around zero (a few fast particles set
	// the range), which is what lifts HACC's ratioo ceiling to ~9.
	for _, name := range []string{"vx", "vy", "vz"} {
		d.Fields = append(d.Fields, Field{
			Name: name,
			Dims: lorenzo.Dims1(n),
			gen: func(rng *rand.Rand, dm lorenzo.Dims) []float32 {
				w := particleWalk(rng, dm, 0.5, 0.02)
				out := make([]float32, len(w))
				for i, v := range w {
					t := (float64(v) - 128) / 128 // ≈ [-1, 1]
					out[i] = float32(2000 * t * t * t * t * t)
				}
				return out
			},
		})
	}
	return d
}
