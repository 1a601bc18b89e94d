//go:build amd64 && !purego

package core

import "ceresz/internal/cpufeat"

// useAVX2 selects the assembly run kernels (kernels_amd64.s) over the Go
// ones. It is set once, from the CPU; tests flip it to run the two side by
// side.
var useAVX2 = cpufeat.AVX2

// useAVX512 selects, where useAVX2 holds, the sixteen-lane decode run
// kernels over the AVX2 ones. It is set once, from the CPU, like useAVX2.
var useAVX512 = cpufeat.AVX512

//go:noescape
func encodeRunF32AVX2(dst *byte, src *float32, abs *uint32, widths *byte, n, groups, hdr, limit int, recip, twoE, eps float64, zeroT float32) (done, used int)

//go:noescape
func encodeRunF64AVX2(dst *byte, src *float64, abs *uint32, widths *byte, n, groups, hdr, limit int, recip, twoE, eps, zeroT float64) (done, used int)

//go:noescape
func decodeRunF32AVX2(out *float32, body, widths *byte, n, groups, hdr int, twoE float64) (done, used int)

//go:noescape
func decodeRunF64AVX2(out *float64, body, widths *byte, n, groups, hdr int, twoE float64) (done, used int)

//go:noescape
func decodeRunF32AVX512(out *float32, body, widths *byte, n, groups, hdr int, twoE float64) (done, used int)

//go:noescape
func decodeRunF64AVX512(out *float64, body, widths *byte, n, groups, hdr int, twoE float64) (done, used int)

// encodeRun encodes the blocks of src one after another into room,
// recording their widths, until all are done, fewer than e.reserve bytes of
// room remain, or a block must be stored verbatim: prescan, fused forward
// pass and plane emission of the whole run in one kernel call. done is the
// number of blocks encoded, used the bytes written. Every extent the kernel
// is handed is sized here: src to the run, the scratch to one block, and
// the limit past which no block may start to e.reserve short of room's end.
func (e *blockEncoder[F]) encodeRun(room []byte, src []F, widths []byte) (done, used int) {
	if !useAVX2 || len(widths) == 0 || len(room) < e.reserve {
		return e.encodeRunGo(room, src, widths)
	}
	src, abs := src[:len(widths)*e.L], e.scratch.Abs[:e.L]
	limit := len(room) - e.reserve
	switch src := any(src).(type) {
	case []float32:
		return encodeRunF32AVX2(&room[0], &src[0], &abs[0], &widths[0], len(widths), e.L/8, e.hdr, limit,
			e.q.Recip(), e.q.TwoEps(), e.q.Eps(), float32(e.zeroT))
	case []float64:
		return encodeRunF64AVX2(&room[0], &src[0], &abs[0], &widths[0], len(widths), e.L/8, e.hdr, limit,
			e.q.Recip(), e.q.TwoEps(), e.q.Eps(), float64(e.zeroT))
	}
	panic("unreachable")
}

// decodeRun decodes the blocks widths describes one after another from
// body into out until all are done or one is verbatim: the fused reverse
// pass of the whole run, plane bytes to codes to values, in one kernel
// call. done is the number of blocks decoded, used the body bytes they
// took. scanWidths has checked that the blocks, at the sizes widths gives
// them, lie inside body; out is sized to the run here.
func (d *blockDecoder[F]) decodeRun(out []F, body, widths []byte, hdr int, twoE float64) (done, used int) {
	if !useAVX2 || len(widths) == 0 {
		return d.decodeRunGo(out, body, widths, hdr, twoE)
	}
	switch out := any(out[:len(widths)*d.L]).(type) {
	case []float32:
		if useAVX512 {
			return decodeRunF32AVX512(&out[0], &body[0], &widths[0], len(widths), d.L/8, hdr, twoE)
		}
		return decodeRunF32AVX2(&out[0], &body[0], &widths[0], len(widths), d.L/8, hdr, twoE)
	case []float64:
		if useAVX512 {
			return decodeRunF64AVX512(&out[0], &body[0], &widths[0], len(widths), d.L/8, hdr, twoE)
		}
		return decodeRunF64AVX2(&out[0], &body[0], &widths[0], len(widths), d.L/8, hdr, twoE)
	}
	panic("unreachable")
}
