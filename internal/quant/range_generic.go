//go:build !amd64 || purego

package quant

func range32(data []float32) (mn, mx float32) { return rangeOf(data) }
func range64(data []float64) (mn, mx float64) { return rangeOf(data) }
