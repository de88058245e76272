//go:build race

package tcp

// raceEnabled reports that this test binary was built with -race, under which
// allocation counts are not meaningful.
const raceEnabled = true
