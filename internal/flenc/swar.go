// SWAR (SIMD-within-a-register) kernels for the Bit-shuffle step.
//
// The wire layout (Fig. 8) stores plane k, byte j as bit k of elements
// 8j..8j+7, element 8j+i at bit position i. For one group of eight
// elements that is exactly the transpose of the 8×32 bit matrix formed by
// the eight absolute values — so instead of walking the block once per
// plane (up to 32 passes, one scattered bit per element per pass), the
// kernels below walk it once, transposing one 8×8 bit tile per byte lane
// with three word-level delta swaps (Hacker's Delight §7-3, the same
// transform vecSZ issues as SIMD shuffles). A block of width w costs
// ⌈w/8⌉·L/8 transposes instead of w·L bit probes.
//
// The scalar per-plane kernels (ShufflePlane, UnshufflePlane, and the
// *Scalar composites) are retained deliberately: they are the reference
// implementation for differential testing, and they model the per-bit
// "1-bit Shuffle" pipeline sub-stages that the WSE mapping schedules
// across PEs (Table 3) — the simulated path must keep paying per-plane
// cost because the hardware does.

package flenc

// Transpose8x8 transposes an 8×8 bit matrix packed row-major in a uint64
// (row r in byte r, column c in bit c): bit 8r+c of x becomes bit 8c+r of
// the result. Three delta swaps replace 64 single-bit probes; the
// transform is its own inverse.
func Transpose8x8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x ^= t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x ^= t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	x ^= t ^ (t << 28)
	return x
}

// Shuffle writes width consecutive bit planes of abs into dst
// (len(dst) = int(width) · len(abs)/8) in a single pass over the block:
// each group of eight values is transposed byte lane by byte lane,
// emitting eight plane bytes per Transpose8x8. Every dst byte is written,
// so dst needs no prior zeroing.
func Shuffle(dst []byte, abs []uint32, width uint) {
	pb := PlaneBytes(len(abs))
	if len(dst) != int(width)*pb {
		panic("flenc: Shuffle buffer size mismatch")
	}
	for j := 0; j < pb; j++ {
		v := abs[8*j : 8*j+8 : 8*j+8]
		for sh := uint(0); sh < width; sh += 8 {
			x := uint64(byte(v[0]>>sh)) |
				uint64(byte(v[1]>>sh))<<8 |
				uint64(byte(v[2]>>sh))<<16 |
				uint64(byte(v[3]>>sh))<<24 |
				uint64(byte(v[4]>>sh))<<32 |
				uint64(byte(v[5]>>sh))<<40 |
				uint64(byte(v[6]>>sh))<<48 |
				uint64(byte(v[7]>>sh))<<56
			y := Transpose8x8(x)
			n := width - sh
			if n > 8 {
				n = 8
			}
			for k := uint(0); k < n; k++ {
				dst[int(sh+k)*pb+j] = byte(y >> (8 * k))
			}
		}
	}
}

// Unshuffle reconstructs absolute values from width bit planes, inverting
// Shuffle. Each element is rebuilt in registers, so abs needs no prior
// zeroing.
func Unshuffle(abs []uint32, src []byte, width uint) {
	pb := PlaneBytes(len(abs))
	if len(src) != int(width)*pb {
		panic("flenc: Unshuffle buffer size mismatch")
	}
	for j := 0; j < pb; j++ {
		a := abs[8*j : 8*j+8 : 8*j+8]
		var a0, a1, a2, a3, a4, a5, a6, a7 uint32
		for sh := uint(0); sh < width; sh += 8 {
			n := width - sh
			if n > 8 {
				n = 8
			}
			var y uint64
			for k := uint(0); k < n; k++ {
				y |= uint64(src[int(sh+k)*pb+j]) << (8 * k)
			}
			x := Transpose8x8(y)
			a0 |= uint32(byte(x)) << sh
			a1 |= uint32(byte(x>>8)) << sh
			a2 |= uint32(byte(x>>16)) << sh
			a3 |= uint32(byte(x>>24)) << sh
			a4 |= uint32(byte(x>>32)) << sh
			a5 |= uint32(byte(x>>40)) << sh
			a6 |= uint32(byte(x>>48)) << sh
			a7 |= uint32(byte(x>>56)) << sh
		}
		a[0], a[1], a[2], a[3] = a0, a1, a2, a3
		a[4], a[5], a[6], a[7] = a4, a5, a6, a7
	}
}

// SplitSignsWidth fuses the Sign, Max and GetLength sub-stages into one
// pass: it fills abs and the packed sign bits like SplitSigns and returns
// the block's effective width directly. Instead of tracking the maximum it
// ORs all absolute values together — bits.Len32(a|b) equals
// max(bits.Len32(a), bits.Len32(b)), so the OR yields the same width with
// no data-dependent branch.
func SplitSignsWidth(abs []uint32, signs []byte, src []int32) uint {
	if len(src)%8 != 0 {
		panic("flenc: block length not a multiple of 8")
	}
	if len(abs) != len(src) || len(signs) != len(src)/8 {
		panic("flenc: SplitSignsWidth buffer size mismatch")
	}
	var acc uint32
	for j := range signs {
		v := src[8*j : 8*j+8 : 8*j+8]
		a := abs[8*j : 8*j+8 : 8*j+8]
		var sb uint32
		for i, x := range v {
			neg := uint32(x) >> 31
			u := (uint32(x) ^ -neg) + neg // branchless |x|, total on MinInt32
			sb |= neg << i
			a[i] = u
			acc |= u
		}
		signs[j] = byte(sb)
	}
	return Width(acc)
}

// ShuffleScalar is the retained scalar reference for Shuffle: one pass
// over the block per plane, as the WSE per-bit sub-stages execute it.
func ShuffleScalar(dst []byte, abs []uint32, width uint) {
	pb := PlaneBytes(len(abs))
	if len(dst) != int(width)*pb {
		panic("flenc: ShuffleScalar buffer size mismatch")
	}
	for k := uint(0); k < width; k++ {
		ShufflePlane(dst[int(k)*pb:int(k+1)*pb], abs, k)
	}
}
