package chunkcache

import (
	"encoding/binary"
	"math"
)

// Canonical key layouts. The serving tier (internal/server) addresses
// decoded frames with the decompress preamble, and the cluster tier
// (internal/cluster) routes decompress requests by the same digest, so a
// repeated frame lands on the node whose cache already holds it. Keeping
// the layout here, next to the Key type, is what makes "routing and cache
// keys agree" a property of the code rather than a convention between two
// packages.
const (
	// KeyVersion guards against silently reusing entries (or routing
	// affinity assumptions) across key-schema changes. Version 2 is the
	// sixteen-lane tree of hasher.go with the block length canonicalised;
	// version 1 was one SHA-256 over preamble ‖ data.
	KeyVersion = 2
	// NSCompress namespaces raw-chunk keys (AppendCompressPreamble).
	NSCompress = 1
	// NSDecompress namespaces CSZF-frame-payload → raw-bytes entries.
	NSDecompress = 2

	// defaultBlockLen is the block length the codec uses when a request
	// names none (core.DefaultBlockLen).
	defaultBlockLen = 32
)

// AppendCompressPreamble appends the compress-direction key preamble:
// every parameter that shapes a frame's bytes. No tier keys compress
// traffic — keying a raw chunk costs more than compressing it — so this
// layout only defines the raw-chunk key whose rate the benchmark measures
// against the codec's. elem is the wire element tag (0 = f32, 1 = f64);
// abs selects the absolute-bound mode; eps is the bound value (ε for ABS,
// λ for REL); blockLen is the CereSZ block length, 0 meaning the codec
// default and keyed as that default.
func AppendCompressPreamble(pre []byte, elem byte, abs bool, eps float64, blockLen int) []byte {
	mode := byte(0)
	if abs {
		mode = 1
	}
	if blockLen == 0 {
		blockLen = defaultBlockLen
	}
	pre = append(pre, KeyVersion, NSCompress, elem, mode)
	pre = binary.LittleEndian.AppendUint64(pre, math.Float64bits(eps))
	return binary.LittleEndian.AppendUint32(pre, uint32(blockLen))
}

// AppendDecompressPreamble appends the decompress-direction key preamble.
// The frame payload encodes every codec parameter itself, so only the
// requested output element type joins it.
func AppendDecompressPreamble(pre []byte, wantF64 bool) []byte {
	elem := byte(0)
	if wantF64 {
		elem = 1
	}
	return append(pre, KeyVersion, NSDecompress, elem)
}

// RingHash folds a Key into the 64-bit value consistent-hash rings place
// on the circle: the digest's leading 8 bytes, big-endian. One definition
// shared by every ring consumer keeps placement stable across tiers.
func RingHash(k Key) uint64 { return binary.BigEndian.Uint64(k[:8]) }
