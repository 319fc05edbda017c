//go:build race

package obs

// raceBuild is true in a race-built test binary, whose runtime adds
// allocations of its own.
const raceBuild = true
