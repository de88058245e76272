//go:build race

package perfmodel

// raceEnabled reports that this test binary was built with -race. The
// calibrated-profile ordering compares wall-clock timings; race
// instrumentation slows the two sides by different factors, so the
// comparison is skipped.
const raceEnabled = true
