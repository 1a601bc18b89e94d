package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"ceresz/internal/flenc"
	"ceresz/internal/lorenzo"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
)

// Tiled 2D-Lorenzo variant. The paper keeps CereSZ's predictor 1D for
// throughput — "beyond the first-order difference … there are higher
// dimensional Lorenzo prediction methods … Although CereSZ can support
// such prediction methods, in this work we prioritize high throughput"
// (§3) — and warns that 2D prediction costs strided memory access. This
// file implements that supported-but-unused option: the field is re-tiled
// into 8×4-element patches (still 32 elements, so every block-format and
// WSE-mapping property is unchanged) and a 2D Lorenzo transform runs
// within each tile. Blocks stay fully independent; only the gather/scatter
// is strided, exactly the cost the paper predicts.
//
// Measured outcome (TestTiled2DComparableTo1D): the 2D predictor does NOT
// materially improve CereSZ's ratio, because the fixed-length format pays
// for each block's MAXIMUM code and the first element's absolute magnitude
// p₁ dominates that maximum under either predictor. The experiment
// quantifies why the paper's 1D choice is the right pairing for this
// encoding — higher-order prediction only pays off behind entropy coders
// (the SZ/cuSZ baselines).

// Tile geometry: 8 columns × 4 rows = one 32-element block.
const (
	tileW = 8
	tileH = 4
)

// elemF32Tiled marks a tiled-predictor float32 stream in the container's
// flags byte.
const elemF32Tiled byte = 2

// tileDims is the per-tile grid for the 2D Lorenzo transform.
var tileDims = lorenzo.Dims{Nx: tileW, Ny: tileH, Nz: 1}

// tilesOf returns tiles per slice row, per slice, and in total.
func tilesOf(d lorenzo.Dims) (tx, ty, total int) {
	tx = (d.Nx + tileW - 1) / tileW
	ty = (d.Ny + tileH - 1) / tileH
	return tx, ty, tx * ty * d.Nz
}

// CompressTiled compresses a 2D/3D field with per-tile 2D Lorenzo
// prediction. The stream does not carry the grid: DecompressTiled needs
// the same dims (they are part of the dataset's metadata, as with the
// SDRBench archives).
func CompressTiled(dst []byte, data []float32, d lorenzo.Dims, eps float64, opts Options) ([]byte, *Stats, error) {
	opts = opts.withDefaults()
	opts.BlockLen = tileW * tileH
	if err := opts.validate(); err != nil {
		return dst, nil, err
	}
	if err := d.Validate(len(data)); err != nil {
		return dst, nil, err
	}
	if d.Order() < 2 {
		return dst, nil, fmt.Errorf("core: tiled predictor needs a 2D or 3D grid, have %+v", d)
	}
	if !(eps > 0) {
		return dst, nil, quant.ErrNonPositiveBound
	}
	q, err := quant.NewQuantizer(eps)
	if err != nil {
		return dst, nil, err
	}

	_, _, nTiles := tilesOf(d)
	stats := &Stats{Elements: len(data), Blocks: nTiles, Eps: eps}

	start := len(dst)
	var hdr [StreamHeaderSize]byte
	copy(hdr[0:4], Magic[:])
	hdr[4] = byte(opts.HeaderBytes)
	hdr[5] = elemF32Tiled
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(opts.BlockLen))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(data)))
	binary.LittleEndian.PutUint64(hdr[16:24], math.Float64bits(eps))
	dst = append(dst, hdr[:]...)

	var (
		tile    [tileW * tileH]float32
		codes   [tileW * tileH]int32
		resid   [tileW * tileH]int32
		scratch = flenc.NewBlock(tileW * tileH)
	)
	for t := 0; t < nTiles; t++ {
		gatherTile(data, d, t, tile[:])
		// Stage ①: fused quantize + strictness check (shared with the 1D
		// path's kernels; 2D prediction itself cannot fuse into the scan).
		if !quantizeStrict32(q, codes[:], tile[:]) {
			stats.VerbatimBlocks++
			dst = appendVerbatim(dst, tile[:], opts.HeaderBytes)
			continue
		}
		// Stage ②: 2D Lorenzo within the tile.
		if err := lorenzo.Forward2D(resid[:], codes[:], tileDims); err != nil {
			panic(err) // fixed dims: unreachable
		}
		// Stage ③.
		var w uint
		dst, w = flenc.EncodeBlock(dst, resid[:], opts.HeaderBytes, scratch)
		stats.WidthHistogram[w]++
		if w == 0 {
			stats.ZeroBlocks++
		}
	}
	stats.CompressedBytes = len(dst) - start
	return dst, stats, nil
}

// DecompressTiled reconstructs a CompressTiled stream; d must match the
// dims used at compression.
func DecompressTiled(dst []float32, comp []byte, d lorenzo.Dims) ([]float32, error) {
	if len(comp) < StreamHeaderSize {
		return dst, fmt.Errorf("%w: short stream", ErrBadStream)
	}
	if comp[0] != Magic[0] || comp[1] != Magic[1] || comp[2] != Magic[2] || comp[3] != Magic[3] {
		return dst, fmt.Errorf("%w: bad magic", ErrBadStream)
	}
	if comp[5] != elemF32Tiled {
		return dst, fmt.Errorf("%w: not a tiled-predictor stream (flag %d)", ErrBadStream, comp[5])
	}
	headerBytes := int(comp[4])
	if headerBytes != flenc.HeaderU32 && headerBytes != flenc.HeaderU8 {
		return dst, fmt.Errorf("%w: unsupported block header size %d", ErrBadStream, headerBytes)
	}
	if bl := int(binary.LittleEndian.Uint16(comp[6:8])); bl != tileW*tileH {
		return dst, fmt.Errorf("%w: tiled stream block length %d, want %d", ErrBadStream, bl, tileW*tileH)
	}
	n := int(binary.LittleEndian.Uint64(comp[8:16]))
	if err := d.Validate(n); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrBadStream, err)
	}
	eps := math.Float64frombits(binary.LittleEndian.Uint64(comp[16:24]))
	q, err := quant.NewQuantizer(eps)
	if err != nil {
		return dst, fmt.Errorf("%w: %v", ErrBadStream, err)
	}

	start := len(dst)
	dst = append(dst, make([]float32, n)...)
	out := dst[start:]

	body := comp[StreamHeaderSize:]
	pos := 0
	var (
		resid   [tileW * tileH]int32
		codes   [tileW * tileH]int32
		tile    [tileW * tileH]float32
		scratch = flenc.NewBlock(tileW * tileH)
	)
	_, _, nTiles := tilesOf(d)
	for t := 0; t < nTiles; t++ {
		v, hn, err := flenc.Header(body[pos:], headerBytes)
		if err != nil {
			return dst, fmt.Errorf("%w: tile %d: %v", ErrBadStream, t, err)
		}
		if v == flenc.VerbatimU32 {
			if len(body)-pos < hn+4*tileW*tileH {
				return dst, fmt.Errorf("%w: tile %d: truncated verbatim tile", ErrBadStream, t)
			}
			rawfloat.Decode(tile[:], body[pos+hn:])
			pos += hn + 4*tileW*tileH
		} else {
			consumed, err := flenc.DecodeBlock(resid[:], body[pos:], headerBytes, scratch)
			if err != nil {
				return dst, fmt.Errorf("%w: tile %d: %v", ErrBadStream, t, err)
			}
			pos += consumed
			if err := lorenzo.Inverse2D(codes[:], resid[:], tileDims); err != nil {
				panic(err) // fixed dims: unreachable
			}
			q.Dequantize(tile[:], codes[:])
		}
		scatterTile(out, d, t, tile[:])
	}
	return dst, nil
}

// gatherTile copies tile t of the field into tile, zero-padding cells
// past the grid edge.
func gatherTile(data []float32, d lorenzo.Dims, t int, tile []float32) {
	tx, ty, _ := tilesOf(d)
	z := t / (tx * ty)
	rem := t % (tx * ty)
	tyIdx := rem / tx
	txIdx := rem % tx
	baseX := txIdx * tileW
	baseY := tyIdx * tileH
	slice := z * d.Nx * d.Ny
	for j := 0; j < tileH; j++ {
		y := baseY + j
		for i := 0; i < tileW; i++ {
			x := baseX + i
			if x >= d.Nx || y >= d.Ny {
				tile[j*tileW+i] = 0
				continue
			}
			tile[j*tileW+i] = data[slice+y*d.Nx+x]
		}
	}
}

// scatterTile writes a reconstructed tile back into the field, skipping
// padded cells.
func scatterTile(out []float32, d lorenzo.Dims, t int, tile []float32) {
	tx, ty, _ := tilesOf(d)
	z := t / (tx * ty)
	rem := t % (tx * ty)
	tyIdx := rem / tx
	txIdx := rem % tx
	baseX := txIdx * tileW
	baseY := tyIdx * tileH
	slice := z * d.Nx * d.Ny
	for j := 0; j < tileH; j++ {
		y := baseY + j
		if y >= d.Ny {
			break
		}
		for i := 0; i < tileW; i++ {
			x := baseX + i
			if x >= d.Nx {
				break
			}
			out[slice+y*d.Nx+x] = tile[j*tileW+i]
		}
	}
}
