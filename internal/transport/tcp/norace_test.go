//go:build !race

package tcp

// raceEnabled reports that this test binary was built with -race.
const raceEnabled = false
