//go:build amd64 && !purego

package chunkcache

import (
	"crypto/sha256"
	"encoding/binary"

	"ceresz/internal/cpufeat"
)

// useAVX512 selects the sixteen-wide assembly kernel (lanes_amd64.s) over
// sixteen crypto/sha256 calls. It is set once, from the CPU; tests flip it
// to run the two side by side.
var useAVX512 = cpufeat.AVX512

//go:noescape
func sha256x16(state *[8][lanes]uint32, p *byte, stride, blocks int)

// iv16 is SHA-256's initial chaining value in the kernel's layout: word w
// of every lane in row w.
var iv16 = func() (s [8][lanes]uint32) {
	for w, v := range [8]uint32{
		0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
		0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
	} {
		for i := range s[w] {
			s[w][i] = v
		}
	}
	return s
}()

// laneDigests writes SHA-256(data[i*laneLen:(i+1)*laneLen]) for i = 0…15
// into dig, 32 bytes each. laneLen is a multiple of the SHA-256 block size.
func (h *Hasher) laneDigests(dig, data []byte, laneLen int) {
	if !useAVX512 {
		h.laneDigestsPortable(dig, data, laneLen)
		return
	}
	state := iv16
	if laneLen > 0 {
		data = data[:lanes*laneLen] // the extent the kernel reads, checked here
		sha256x16(&state, &data[0], laneLen, laneLen/sha256.BlockSize)
	}
	// The lanes are equally long and end on a block boundary, so SHA-256's
	// padding is one more block and the same one for all of them: stride 0.
	pad := [sha256.BlockSize]byte{0: 0x80}
	binary.BigEndian.PutUint64(pad[sha256.BlockSize-8:], uint64(laneLen)*8)
	sha256x16(&state, &pad[0], 0, 1)
	for i := 0; i < lanes; i++ {
		d := dig[i*sha256.Size : (i+1)*sha256.Size]
		for w := range state {
			binary.BigEndian.PutUint32(d[4*w:], state[w][i])
		}
	}
}
