package chunkcache

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"sync/atomic"
)

// Admission is TinyLFU's doorkeeper (Einziger, Friedman & Manes, "TinyLFU:
// A Highly Efficient Cache Admission Policy", ACM TOS 2017): a chunk enters
// the cache on its second sighting, not its first. A first sighting costs
// a fingerprint — a seeded maphash over the preamble, le64(len(data)) and
// sampleWords 8-byte words of data at a fixed stride plus its last word,
// or all of data when it is no longer than that — instead of the
// sixteen-lane SHA-256 key, and the chunk is computed uncached.
//
// The fingerprint is never a correctness input: it decides only whether a
// chunk is keyed. Two chunks that agree on every sampled word are told
// apart by their Keys, so a false "seen" costs what every chunk cost before
// admission existed, and a lost fingerprint costs one uncached compute.
const (
	sampleWords = 64
	// sampleBytes is the longest input fingerprinted whole.
	sampleBytes = 8 * (sampleWords + 1)

	// doorBytesPerSlot sizes the table from the cache budget: 64 Ki
	// fingerprints for a 256 MiB cache.
	doorBytesPerSlot = 4 << 10
	doorMinSlots     = 4 << 10
	doorMaxSlots     = 4 << 20
	// doorWays is the slots per bucket: one 64-byte cache line. A bucket
	// rather than a single slot, so that two recurring chunks whose
	// fingerprints share a bucket do not overwrite each other on every
	// sighting and stay unadmitted for the life of the seed.
	doorWays = 8
)

// doorkeeper remembers fingerprints of recently seen chunks in a table of
// atomic slots, doorWays to a bucket; 0 marks an empty slot. A new
// fingerprint takes its bucket's first empty slot, and in a full bucket the
// slot its own low bits pick. Two Admits racing on one slot can lose a
// fingerprint, which costs that chunk one more first sighting.
type doorkeeper struct {
	seed  maphash.Seed
	shift uint // 64 − log2(buckets): a fingerprint's top bits pick its bucket
	slots []atomic.Uint64
}

func newDoorkeeper(capBytes int64) doorkeeper {
	n := doorSlots(capBytes)
	return doorkeeper{
		seed:  maphash.MakeSeed(),
		shift: uint(64 - bits.Len(uint(n/doorWays-1))),
		slots: make([]atomic.Uint64, n),
	}
}

// doorSlots is the table size for a cache budget: one slot per
// doorBytesPerSlot, within the floor and ceiling, rounded up to a power of
// two.
func doorSlots(capBytes int64) int {
	n := min(max(capBytes/doorBytesPerSlot, doorMinSlots), doorMaxSlots)
	return 1 << bits.Len64(uint64(n-1))
}

// Admit reports whether the chunk data under preamble pre has been seen
// before, and records that it has now. A caller that gets true keys the
// chunk and goes through Get, as every chunk did before admission; one
// that gets false must compute the chunk without the cache, and this call
// has already counted it as a miss (it runs the codec) and as a first
// sighting. Admit is safe for concurrent use and allocates nothing.
func (c *Cache) Admit(pre, data []byte) bool {
	d := &c.door
	fp := d.fingerprint(pre, data)
	bucket := d.slots[(fp>>d.shift)*doorWays:][:doorWays]
	slot := &bucket[fp%doorWays]
	for i := range bucket {
		v := bucket[i].Load()
		if v == fp {
			return true
		}
		if v == 0 { // slots fill in order: fp is not further on
			slot = &bucket[i]
			break
		}
	}
	slot.Store(fp)
	c.misses.Add(1)
	c.firstSightings.Add(1)
	return false
}

// fingerprint is the sampled hash defined above, never 0.
func (d *doorkeeper) fingerprint(pre, data []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(d.seed)
	h.Write(pre)
	var words [8 + sampleBytes]byte
	binary.LittleEndian.PutUint64(words[:8], uint64(len(data)))
	if len(data) <= sampleBytes {
		h.Write(words[:8])
		h.Write(data)
	} else {
		stride := (len(data) - 8) / sampleWords
		for i := 0; i < sampleWords; i++ {
			copy(words[8+8*i:], data[i*stride:i*stride+8])
		}
		copy(words[8+8*sampleWords:], data[len(data)-8:])
		h.Write(words[:])
	}
	return max(h.Sum64(), 1)
}
