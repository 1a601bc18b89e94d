//go:build amd64 && !purego

package core

import (
	"slices"

	"ceresz/internal/cpufeat"
	"ceresz/internal/flenc"
)

// useAVX2 selects the assembly block kernels (kernels_amd64.s) over the Go
// ones. It is set once, from the CPU; tests flip it to run the two side by
// side.
var useAVX2 = cpufeat.AVX2

//go:noescape
func encodeBlockF32AVX2(dst *byte, src *float32, abs *uint32, groups, hdr int, recip, twoE, eps float64, zeroT float32) int

//go:noescape
func encodeBlockF64AVX2(dst *byte, src *float64, abs *uint32, groups, hdr int, recip, twoE, eps, zeroT float64) int

//go:noescape
func decodeBlockF32AVX2(out *float32, signs, planes *byte, groups, w int, twoE float64)

//go:noescape
func decodeBlockF64AVX2(out *float64, signs, planes *byte, groups, w int, twoE float64)

// encodeVector is encode's body on the vector path: prescan, fused forward
// pass and plane emission in one kernel call that writes the block straight
// into dst's spare capacity. Every slice the kernel is handed is sized
// here: src and the scratch to L, dst to the widest block there is.
func (e *blockEncoder) encodeVector(dst []byte, src []float32, stats *Stats) []byte {
	n := len(dst)
	dst = slices.Grow(dst, flenc.EncodedSize(flenc.MaxWidth, e.L, e.hdr))
	src, abs := src[:e.L], e.scratch.Abs[:e.L]
	w := encodeBlockF32AVX2(&dst[:n+1][n], &src[0], &abs[0], e.L/8, e.hdr,
		e.q.Recip(), e.q.TwoEps(), e.q.Eps(), e.zeroT)
	if w < 0 {
		stats.VerbatimBlocks++
		return appendVerbatim(dst, src, e.hdr)
	}
	stats.WidthHistogram[w]++
	if w == 0 {
		stats.ZeroBlocks++
	}
	return dst[:n+flenc.EncodedSize(uint(w), e.L, e.hdr)]
}

func (e *blockEncoder64) encodeVector(dst []byte, src []float64, stats *Stats) []byte {
	n := len(dst)
	dst = slices.Grow(dst, flenc.EncodedSize(flenc.MaxWidth, e.L, e.hdr))
	src, abs := src[:e.L], e.scratch.Abs[:e.L]
	w := encodeBlockF64AVX2(&dst[:n+1][n], &src[0], &abs[0], e.L/8, e.hdr,
		e.q.Recip(), e.q.TwoEps(), e.q.Eps(), e.zeroT)
	if w < 0 {
		stats.VerbatimBlocks++
		return appendVerbatim64(dst, src, e.hdr)
	}
	stats.WidthHistogram[w]++
	if w == 0 {
		stats.ZeroBlocks++
	}
	return dst[:n+flenc.EncodedSize(uint(w), e.L, e.hdr)]
}

// decodeVector is the fused reverse pass of decode on the vector path:
// plane bytes to codes to values without the unshuffle scratch. flenc
// .DecodeBody has already sized signs to L/8 bytes and planes to w·L/8 with
// 1 ≤ w ≤ 32; the reslices below make the kernel's three extents a checked
// fact rather than a caller's promise.
func (d *blockDecoder) decodeVector(full []float32, signs, planes []byte, w uint) {
	pb := d.L / 8
	full, signs, planes = full[:d.L], signs[:pb], planes[:int(w)*pb]
	decodeBlockF32AVX2(&full[0], &signs[0], &planes[0], pb, int(w), d.q.TwoEps())
}

func (d *blockDecoder64) decodeVector(full []float64, signs, planes []byte, w uint) {
	pb := d.L / 8
	full, signs, planes = full[:d.L], signs[:pb], planes[:int(w)*pb]
	decodeBlockF64AVX2(&full[0], &signs[0], &planes[0], pb, int(w), d.q.TwoEps())
}
