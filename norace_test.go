//go:build !race

package chaseterm

// raceEnabled reports whether the race detector is on. It changes how
// much the runtime allocates, so the byte pins skip under it.
const raceEnabled = false
