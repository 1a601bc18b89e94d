package chunkcache

// waiters returns how many Gets are blocked on the handle's pending
// entry, read under the shard lock.
func (h Handle) waiters() int {
	h.s.mu.Lock()
	defer h.s.mu.Unlock()
	return int(h.e.waiters)
}
