//go:build !amd64 || purego

package chunkcache

// laneDigests writes SHA-256(data[i*laneLen:(i+1)*laneLen]) for i = 0…15
// into dig, 32 bytes each.
func (h *Hasher) laneDigests(dig, data []byte, laneLen int) {
	h.laneDigestsPortable(dig, data, laneLen)
}
