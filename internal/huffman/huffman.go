// Package huffman implements a canonical Huffman coder over 32-bit symbol
// alphabets. It is the lossless back end of the cuSZ- and SZ3-like
// baselines (paper §5.1.3), which encode quantization/residual codes with
// Huffman instead of CereSZ's fixed-length scheme. CereSZ itself avoids
// Huffman deliberately — building the codebook is expensive and violates
// its high-throughput design (paper §3, "Lossless Encoding Selection").
package huffman

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"ceresz/internal/bitstream"
)

// MaxCodeLen is the longest admissible code. Codebooks deeper than this are
// rejected (they cannot occur for realistic block counts, but guard anyway).
const MaxCodeLen = 58

// ErrCorrupt is wrapped by decoding failures.
var ErrCorrupt = errors.New("huffman: corrupt stream")

// Codebook maps symbols to canonical codes.
type Codebook struct {
	// lengths[sym] is the code length in bits.
	lengths map[uint32]uint8
	// codes[sym] is the canonical code value (MSB-first semantics stored
	// LSB-first reversed for the bitstream writer).
	codes map[uint32]uint64
	// decode tables: symbols sorted by (length, symbol) with first-code
	// offsets per length, enabling O(maxLen) decode per symbol.
	symbols   []uint32
	firstCode [MaxCodeLen + 2]uint64
	firstSym  [MaxCodeLen + 2]int
	maxLen    uint8
}

type hnode struct {
	weight      int64
	sym         uint32
	left, right *hnode
	order       int64 // tie-break for determinism
}

type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight < h[j].weight
	}
	return h[i].order < h[j].order
}
func (h hheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hheap) Push(x any)   { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() any     { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// Build constructs a canonical codebook from symbol frequencies.
// Frequencies must be positive; at least one symbol is required.
func Build(freqs map[uint32]int64) (*Codebook, error) {
	if len(freqs) == 0 {
		return nil, errors.New("huffman: empty alphabet")
	}
	// Deterministic node ordering.
	syms := make([]uint32, 0, len(freqs))
	for s, f := range freqs {
		if f <= 0 {
			return nil, fmt.Errorf("huffman: non-positive frequency %d for symbol %d", f, s)
		}
		syms = append(syms, s)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })

	h := make(hheap, 0, len(syms))
	var order int64
	for _, s := range syms {
		h = append(h, &hnode{weight: freqs[s], sym: s, order: order})
		order++
	}
	heap.Init(&h)
	if len(h) == 1 {
		// Single-symbol alphabet: one-bit code.
		cb := &Codebook{
			lengths: map[uint32]uint8{syms[0]: 1},
			codes:   map[uint32]uint64{syms[0]: 0},
		}
		cb.buildDecodeTables()
		return cb, nil
	}
	for len(h) > 1 {
		a := heap.Pop(&h).(*hnode)
		b := heap.Pop(&h).(*hnode)
		heap.Push(&h, &hnode{weight: a.weight + b.weight, left: a, right: b, order: order})
		order++
	}
	root := h[0]

	lengths := map[uint32]uint8{}
	var walk func(n *hnode, depth uint8) error
	walk = func(n *hnode, depth uint8) error {
		if n.left == nil {
			if depth == 0 {
				depth = 1
			}
			if depth > MaxCodeLen {
				return fmt.Errorf("huffman: code length %d exceeds %d", depth, MaxCodeLen)
			}
			lengths[n.sym] = depth
			return nil
		}
		if err := walk(n.left, depth+1); err != nil {
			return err
		}
		return walk(n.right, depth+1)
	}
	if err := walk(root, 0); err != nil {
		return nil, err
	}
	cb := &Codebook{lengths: lengths}
	cb.assignCanonical()
	cb.buildDecodeTables()
	return cb, nil
}

// assignCanonical derives canonical code values from the length map.
func (cb *Codebook) assignCanonical() {
	type sl struct {
		sym uint32
		ln  uint8
	}
	list := make([]sl, 0, len(cb.lengths))
	for s, l := range cb.lengths {
		list = append(list, sl{s, l})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].ln != list[j].ln {
			return list[i].ln < list[j].ln
		}
		return list[i].sym < list[j].sym
	})
	cb.codes = make(map[uint32]uint64, len(list))
	var code uint64
	var prevLen uint8
	for _, e := range list {
		code <<= (e.ln - prevLen)
		cb.codes[e.sym] = code
		code++
		prevLen = e.ln
	}
}

// buildDecodeTables prepares the canonical first-code/first-symbol tables.
func (cb *Codebook) buildDecodeTables() {
	if cb.codes == nil {
		cb.assignCanonical()
	}
	type sl struct {
		sym uint32
		ln  uint8
	}
	list := make([]sl, 0, len(cb.lengths))
	for s, l := range cb.lengths {
		list = append(list, sl{s, l})
		if l > cb.maxLen {
			cb.maxLen = l
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].ln != list[j].ln {
			return list[i].ln < list[j].ln
		}
		return list[i].sym < list[j].sym
	})
	cb.symbols = make([]uint32, len(list))
	for i, e := range list {
		cb.symbols[i] = e.sym
	}
	idx := 0
	var code uint64
	for l := uint8(1); l <= cb.maxLen; l++ {
		cb.firstCode[l] = code
		cb.firstSym[l] = idx
		for idx < len(list) && list[idx].ln == l {
			idx++
			code++
		}
		code <<= 1
	}
	cb.firstCode[cb.maxLen+1] = code
}

// FromLengths rebuilds a canonical codebook from a symbol→length map —
// the serialized form a decoder receives. Lengths must be in
// [1, MaxCodeLen].
func FromLengths(lengths map[uint32]uint8) (*Codebook, error) {
	if len(lengths) == 0 {
		return nil, errors.New("huffman: empty length table")
	}
	cp := make(map[uint32]uint8, len(lengths))
	for s, l := range lengths {
		if l == 0 || l > MaxCodeLen {
			return nil, fmt.Errorf("huffman: invalid code length %d for symbol %d", l, s)
		}
		cp[s] = l
	}
	cb := &Codebook{lengths: cp}
	cb.assignCanonical()
	cb.buildDecodeTables()
	return cb, nil
}

// Lengths returns a copy of the symbol→code-length table (the canonical
// codebook's serializable form).
func (cb *Codebook) Lengths() map[uint32]uint8 {
	out := make(map[uint32]uint8, len(cb.lengths))
	for s, l := range cb.lengths {
		out[s] = l
	}
	return out
}

// Len returns the alphabet size.
func (cb *Codebook) Len() int { return len(cb.lengths) }

// MaxLen returns the longest code length in bits.
func (cb *Codebook) MaxLen() uint8 { return cb.maxLen }

// Encode appends sym's code (MSB-first) to w. Unknown symbols error.
func (cb *Codebook) Encode(w *bitstream.Writer, sym uint32) error {
	l, ok := cb.lengths[sym]
	if !ok {
		return fmt.Errorf("huffman: symbol %d not in codebook", sym)
	}
	code := cb.codes[sym]
	for i := int(l) - 1; i >= 0; i-- {
		w.WriteBit(uint32(code>>uint(i)) & 1)
	}
	return nil
}

// Decode reads one symbol from r (MSB-first canonical decoding).
func (cb *Codebook) Decode(r *bitstream.Reader) (uint32, error) {
	var code uint64
	for l := uint8(1); l <= cb.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		code = code<<1 | uint64(b)
		// Codes of length l occupy [firstCode[l], firstCode[l]+countAt(l)).
		next := cb.firstCode[l] + uint64(cb.countAt(l))
		if code < next {
			if code < cb.firstCode[l] {
				return 0, fmt.Errorf("%w: prefix %#x shorter than any code", ErrCorrupt, code)
			}
			off := int(code - cb.firstCode[l])
			return cb.symbols[cb.firstSym[l]+off], nil
		}
	}
	return 0, fmt.Errorf("%w: no code matched within %d bits", ErrCorrupt, cb.maxLen)
}

// countAt returns how many codes have exactly length l.
func (cb *Codebook) countAt(l uint8) int {
	end := len(cb.symbols)
	if int(l) < int(cb.maxLen) {
		end = cb.firstSym[l+1]
	}
	return end - cb.firstSym[l]
}

// CountFreqs tallies symbol frequencies.
func CountFreqs(symbols []uint32) map[uint32]int64 {
	f := make(map[uint32]int64)
	for _, s := range symbols {
		f[s]++
	}
	return f
}

// EncodeAll encodes the symbol sequence with a freshly built codebook and
// returns (codebook, payload bytes). Convenience for the baselines.
func EncodeAll(symbols []uint32) (*Codebook, []byte, error) {
	cb, err := Build(CountFreqs(symbols))
	if err != nil {
		return nil, nil, err
	}
	w := bitstream.NewWriter(len(symbols))
	for _, s := range symbols {
		if err := cb.Encode(w, s); err != nil {
			return nil, nil, err
		}
	}
	return cb, w.Bytes(), nil
}

// DecodeAll decodes n symbols from payload using cb.
func DecodeAll(cb *Codebook, payload []byte, n int) ([]uint32, error) {
	r := bitstream.NewReader(payload)
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		s, err := cb.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("symbol %d: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}
