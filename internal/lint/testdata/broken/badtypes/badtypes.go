// Package badtypes fails type checking on purpose: the loader must surface
// a clean error, not panic.
package badtypes

func Mismatched() int {
	var s string = 42
	return s
}
