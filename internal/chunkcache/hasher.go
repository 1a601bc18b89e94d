package chunkcache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// The key definition (KeyVersion 2). For a preamble and n = len(data)
// bytes of codec input:
//
//	L   = ⌊n/1024⌋·64                        lane length, a multiple of 64
//	Dᵢ  = SHA-256(data[i·L:(i+1)·L])         i = 0…15, standard padding
//	Key = SHA-256(preamble ‖ le64(n) ‖ D₀ ‖ … ‖ D₁₅ ‖ data[16·L:])
//
// The sixteen lanes are contiguous, equally long and independent — the
// property the paper maps onto PEs, here mapped onto the sixteen dword
// lanes of a ZMM register — and the tail (n mod 1024 bytes) goes into the
// root as it is; an input shorter than 1 KiB is all tail. Every preamble
// has a length fixed by its namespace byte and n is in the root message,
// so the root message parses one way only: two inputs with the same Key
// have either the same root message, hence the same preamble, n, tail and
// lane digests, hence (all lanes equal, or a SHA-256 collision in a lane)
// the same data; or different root messages with one SHA-256 digest. A
// Key collision is a SHA-256 collision, which is what "a hit never returns
// another chunk's bytes" rested on when the key was one SHA-256 over
// preamble ‖ data.
const (
	lanes = 16
	// superBlock is the input that adds one SHA-256 block to every lane.
	superBlock = lanes * sha256.BlockSize
)

// Hasher derives Keys with reusable state: zero allocations per Key once
// constructed. Not safe for concurrent use; give each worker its own.
type Hasher struct {
	h hash.Hash
	// pre, mid and sum are reusable scratch: passing stack arrays through
	// the hash.Hash interface would force a heap escape per chunk, so they
	// live on the (already heap-resident) Hasher instead. mid is the part
	// of the root message between preamble and tail: le64(n), then the
	// lane digests.
	pre []byte
	mid [8 + lanes*sha256.Size]byte
	sum [sha256.Size]byte
}

// NewHasher returns a ready Hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New(), pre: make([]byte, 0, 64)} }

// Preamble returns the reusable parameter-prefix scratch, emptied. Append
// the values that shape the codec output (direction, element type, mode,
// eps bits, block length), then pass it to Key.
func (h *Hasher) Preamble() []byte { return h.pre[:0] }

// Key derives the Key of data under preamble, as defined above. The lane
// digests come from an AVX-512 kernel that runs the sixteen hashes side by
// side where the CPU has one, and from sixteen crypto/sha256 calls
// elsewhere; both read data in place. preamble should come from Preamble so
// the slice header does not escape per call.
func (h *Hasher) Key(preamble, data []byte) Key {
	h.pre = preamble // retain scratch growth for reuse
	laneLen := len(data) / superBlock * sha256.BlockSize
	binary.LittleEndian.PutUint64(h.mid[:8], uint64(len(data)))
	h.laneDigests(h.mid[8:], data, laneLen)
	h.h.Reset()
	h.h.Write(preamble)
	h.h.Write(h.mid[:])
	h.h.Write(data[lanes*laneLen:])
	h.h.Sum(h.sum[:0])
	return Key(h.sum)
}

// laneDigestsPortable is laneDigests as sixteen crypto/sha256 calls on
// subslices of data: what runs without the AVX-512 kernel, and what the
// tests hold the kernel to.
func (h *Hasher) laneDigestsPortable(dig, data []byte, laneLen int) {
	for i := 0; i < lanes; i++ {
		h.h.Reset()
		h.h.Write(data[i*laneLen : (i+1)*laneLen])
		h.h.Sum(dig[i*sha256.Size : i*sha256.Size]) // appends in place
	}
}
