package lint

// SetToolchain swaps the Go version that salts the cache key and
// returns a func restoring the previous one.
func SetToolchain(v string) (restore func()) {
	prev := toolchain
	toolchain = v
	return func() { toolchain = prev }
}
