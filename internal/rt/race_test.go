//go:build race

package rt

// raceEnabled reports a race-detector build, where the long sweeps shrink.
const raceEnabled = true
