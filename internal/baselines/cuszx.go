package baselines

import (
	"encoding/binary"
	"fmt"
	"math"

	"ceresz/internal/flenc"
	"ceresz/internal/lorenzo"
	"ceresz/internal/quant"
	"ceresz/internal/rawfloat"
)

// CuSZx models cuSZx (Yu et al., HPDC'22), which the paper's related work
// credits with "high compression throughput by a constant block design and
// fast bit-level operations" (§6.1). Per 128-element block:
//
//   - constant block: when max−min ≤ 2ε the whole block collapses to its
//     midpoint (one flag + one float32) — the generalization of CereSZ's
//     zero block to any constant level;
//   - otherwise the block is quantized against its own midpoint and the
//     centered codes are fixed-length coded. Centering removes the
//     absolute-magnitude term that dominates SZp-family block widths, so
//     cuSZx wins on fields with large offsets and small variation (HACC
//     positions are the canonical case).
type CuSZx struct{}

var cuszxMagic = [4]byte{'C', 'S', 'Z', 'X'}

// cuszxBlock is the block length (cuSZx uses 128–256; we take 128).
const cuszxBlock = 128

// Block flags.
const (
	cuszxConstant byte = 0xFF
	cuszxVerbatim byte = 0xFE
)

// Name implements Compressor.
func (CuSZx) Name() string { return "cuSZx" }

// Compress implements Compressor.
func (CuSZx) Compress(data []float32, d lorenzo.Dims, eps float64) (*Compressed, error) {
	if err := d.Validate(len(data)); err != nil {
		return nil, err
	}
	if !(eps > 0) {
		return nil, quant.ErrNonPositiveBound
	}
	q, err := quant.NewQuantizer(eps)
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, len(data))
	out = append(out, cuszxMagic[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	out = binary.LittleEndian.AppendUint32(out, uint32(d.Nx))
	out = binary.LittleEndian.AppendUint32(out, uint32(d.Ny))
	out = binary.LittleEndian.AppendUint32(out, uint32(d.Nz))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(eps))

	scratch := flenc.NewBlock(cuszxBlock)
	centered := make([]float64, cuszxBlock)
	codes := make([]int32, cuszxBlock)
	var constBlocks, blocks int
blocks:
	for lo := 0; lo < len(data); lo += cuszxBlock {
		hi := min(lo+cuszxBlock, len(data))
		blk := data[lo:hi]
		blocks++

		minV, maxV, finite := blockRange(blk)
		if !finite {
			out = append(out, cuszxVerbatim)
			out = appendRawF32(out, blk, cuszxBlock)
			continue
		}
		mid := float32((minV + maxV) / 2)
		if maxV-minV <= 2*eps && float64(maxV)-float64(mid) <= eps && float64(mid)-float64(minV) <= eps {
			constBlocks++
			out = append(out, cuszxConstant)
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(mid))
			continue
		}
		// Centered quantization: p = round((v − mid)/2ε).
		for i, v := range blk {
			centered[i] = (float64(v) - float64(mid)) * q.Recip()
		}
		for i := hi - lo; i < cuszxBlock; i++ {
			centered[i] = 0
		}
		if !quant.Round(codes, centered) {
			out = append(out, cuszxVerbatim)
			out = appendRawF32(out, blk, cuszxBlock)
			continue
		}
		// Strict float32 bound through the centered reconstruction.
		for i := range blk {
			rec := float32(float64(mid) + float64(codes[i])*q.TwoEps())
			if !(math.Abs(float64(rec)-float64(blk[i])) <= eps) {
				out = append(out, cuszxVerbatim)
				out = appendRawF32(out, blk, cuszxBlock)
				continue blocks
			}
		}
		out = append(out, 0) // flag: encoded block (mid + flenc block follow)
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(mid))
		out, _ = flenc.EncodeBlock(out, codes, flenc.HeaderU8, scratch)
	}

	return &Compressed{
		Compressor:    "cuSZx",
		Bytes:         out,
		Elements:      len(data),
		Dims:          d,
		Eps:           eps,
		ZeroBlockFrac: float64(constBlocks) / float64(max(blocks, 1)),
	}, nil
}

// Decompress implements Compressor.
func (CuSZx) Decompress(c *Compressed) ([]float32, error) {
	src := c.Bytes
	if len(src) < 32 || [4]byte(src[0:4]) != cuszxMagic {
		return nil, fmt.Errorf("baselines: not a cuSZx stream")
	}
	n := int(binary.LittleEndian.Uint64(src[4:]))
	eps := math.Float64frombits(binary.LittleEndian.Uint64(src[24:]))
	if !(eps > 0) {
		return nil, fmt.Errorf("baselines: non-positive ε in cuSZx stream")
	}
	pos := 32
	out := make([]float32, n)
	scratch := flenc.NewBlock(cuszxBlock)
	codes := make([]int32, cuszxBlock)
	for lo := 0; lo < n; lo += cuszxBlock {
		hi := min(lo+cuszxBlock, n)
		if pos >= len(src) {
			return nil, fmt.Errorf("baselines: truncated cuSZx stream at block %d", lo/cuszxBlock)
		}
		flag := src[pos]
		pos++
		switch flag {
		case cuszxConstant:
			if len(src)-pos < 4 {
				return nil, fmt.Errorf("baselines: truncated constant block")
			}
			mid := math.Float32frombits(binary.LittleEndian.Uint32(src[pos:]))
			pos += 4
			for i := lo; i < hi; i++ {
				out[i] = mid
			}
		case cuszxVerbatim:
			if len(src)-pos < 4*cuszxBlock {
				return nil, fmt.Errorf("baselines: truncated verbatim block")
			}
			rawfloat.Decode(out[lo:hi], src[pos:])
			pos += 4 * cuszxBlock
		case 0:
			if len(src)-pos < 4 {
				return nil, fmt.Errorf("baselines: truncated block midpoint")
			}
			mid := math.Float32frombits(binary.LittleEndian.Uint32(src[pos:]))
			pos += 4
			consumed, err := flenc.DecodeBlock(codes, src[pos:], flenc.HeaderU8, scratch)
			if err != nil {
				return nil, fmt.Errorf("baselines: cuSZx block at %d: %w", lo, err)
			}
			pos += consumed
			for i := lo; i < hi; i++ {
				out[i] = float32(float64(mid) + float64(codes[i-lo])*2*eps)
			}
		default:
			return nil, fmt.Errorf("baselines: unknown cuSZx block flag %#x", flag)
		}
	}
	return out, nil
}

// blockRange returns the finite min/max of a block; finite is false when
// any element is NaN or ±Inf.
func blockRange(blk []float32) (minV, maxV float64, finite bool) {
	minV, maxV = math.Inf(1), math.Inf(-1)
	for _, v := range blk {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, 0, false
		}
		if f < minV {
			minV = f
		}
		if f > maxV {
			maxV = f
		}
	}
	return minV, maxV, true
}

// appendRawF32 appends the block's raw bytes, zero-padded to blockLen.
func appendRawF32(dst []byte, blk []float32, blockLen int) []byte {
	dst = rawfloat.Append(dst, blk)
	for i := len(blk); i < blockLen; i++ {
		dst = append(dst, 0, 0, 0, 0)
	}
	return dst
}
