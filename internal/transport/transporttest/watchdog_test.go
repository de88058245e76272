package transporttest

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport"
)

// TestWatchdogNamesWedgedRank wedges rank 1 of three on a frame nobody
// sends: the watchdog's error must name rank 1 as the one still in its
// program, not its peers, and over TCP say how long ago it last heard from
// each of them. The world must then unwind rather than leak.
func TestWatchdogNamesWedgedRank(t *testing.T) {
	defer func(d time.Duration) { runDeadline = d }(runDeadline)
	runDeadline = 2 * time.Second
	identity := func(_ int, c transport.Conn) transport.Conn { return c }
	for _, tc := range []struct {
		b     Backend
		heard bool
	}{{InprocWrapped("inproc", identity), false}, {TCP(), true}} {
		base := runtime.NumGoroutine()
		start := time.Now()
		err := tc.b.Run(3, func(c *mpi.Comm) error {
			if c.Rank() == 1 {
				c.Recv(0, 77) // rank 0 never sends tag 77
			}
			return nil
		})
		if err == nil {
			t.Fatalf("%s: a wedged world returned nil", tc.b.Name())
		}
		msg := err.Error()
		t.Logf("%s: %v", tc.b.Name(), msg)
		if !strings.Contains(msg, "rank 1 in its program") {
			t.Errorf("%s: report does not name rank 1 as wedged in its program: %s", tc.b.Name(), msg)
		}
		for _, peer := range []string{"rank 0 in its program", "rank 2 in its program"} {
			if strings.Contains(msg, peer) {
				t.Errorf("%s: report blames a rank that finished its program (%q): %s", tc.b.Name(), peer, msg)
			}
		}
		if tc.heard && !strings.Contains(msg, "rank 1 in its program (last heard: 0 ") {
			t.Errorf("%s: report lacks rank 1's last-heard ages: %s", tc.b.Name(), msg)
		}
		if el := time.Since(start); el > 10*time.Second {
			t.Errorf("%s: watchdog took %v", tc.b.Name(), el)
		}
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines left running after the watchdog, %d before the world", tc.b.Name(), runtime.NumGoroutine(), base)
			}
		}
	}
}
