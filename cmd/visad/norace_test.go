//go:build !race

package main

// raceBuild is true in a race-built test binary: the daemon under test is
// then race-built as well.
const raceBuild = false
