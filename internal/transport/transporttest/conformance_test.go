package transporttest_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

func TestInprocConformance(t *testing.T) {
	transporttest.RunTransportTests(t, transporttest.Inproc())
}

func TestTCPConformance(t *testing.T) {
	transporttest.RunTransportTests(t, transporttest.TCP())
}

func TestInprocCloseSemantics(t *testing.T) {
	transporttest.RunCloseSemanticsTests(t, transporttest.Inproc())
}

func TestTCPCloseSemantics(t *testing.T) {
	transporttest.RunCloseSemanticsTests(t, transporttest.TCP())
}

// delayWrap injects random frame delays on every rank: a semantics-
// preserving fault (delayed-but-ordered delivery), so the FULL conformance
// suite must still pass through the injector. This is the transparency
// claim the chaos soak builds on — delays alone never change results.
func delayWrap(rank int, inner transport.Conn) transport.Conn {
	return faultinject.New(inner, faultinject.Script{
		Seed:      0xD0 + int64(rank),
		DelayProb: 0.25,
		MaxDelay:  2 * time.Millisecond,
	})
}

// idleWrap interposes an injector whose script injects nothing: frames go
// straight through, so everything — including the exact wire size Send
// reports — must read as it does on the bare backend.
func idleWrap(rank int, inner transport.Conn) transport.Conn {
	return faultinject.New(inner, faultinject.Script{})
}

func TestConformanceUnderIdleInjector(t *testing.T) {
	transporttest.RunTransportTests(t, transporttest.InprocWrapped("inproc+inject", idleWrap))
	transporttest.RunTransportTests(t, transporttest.TCPWrapped("tcp+inject", idleWrap, nil))
	transporttest.RunTransportTests(t, transporttest.TCPWrapped("tcp+z+inject", idleWrap, compressHook))
}

func TestInprocConformanceUnderInjectedDelays(t *testing.T) {
	transporttest.RunTransportTests(t, transporttest.InprocWrapped("inproc+delay", delayWrap))
}

func TestTCPConformanceUnderInjectedDelays(t *testing.T) {
	transporttest.RunTransportTests(t, transporttest.TCPWrapped("tcp+delay", delayWrap, nil))
}

func TestInprocCloseSemanticsUnderInjectedDelays(t *testing.T) {
	transporttest.RunCloseSemanticsTests(t, transporttest.InprocWrapped("inproc+delay", delayWrap))
}

// compressHook opts every rank into wirecomp payload compression — the full
// conformance suite must pass unchanged when large data frames travel as
// KindDataZ, because compression is invisible above the transport.
func compressHook(rank int, cfg *tcp.Config) { cfg.Compress = true }

func TestTCPConformanceCompressed(t *testing.T) {
	transporttest.RunTransportTests(t, transporttest.TCPWrapped("tcp+z", nil, compressHook))
}

// Compression and injected delays stacked: the delay injector sits above the
// compressed wire, so reordering-free delayed delivery of KindDataZ frames
// must still satisfy every FIFO and matching guarantee.
func TestTCPConformanceCompressedUnderInjectedDelays(t *testing.T) {
	transporttest.RunTransportTests(t, transporttest.TCPWrapped("tcp+z+delay", delayWrap, compressHook))
}

func TestTCPCloseSemanticsCompressed(t *testing.T) {
	transporttest.RunCloseSemanticsTests(t, transporttest.TCPWrapped("tcp+z", nil, compressHook))
}

// TestTCPRunReportsRankFailure pins that a rank whose function fails takes
// the world down with its own error. Its peers wait for it in the harness's
// final barrier; left there they hang until the 60 s watchdog, which reports
// a hang and hides the failure (how a byte-accounting mismatch on one rank
// used to read as "TestExchangeWireLeanAcceptanceTCP times out in teardown").
func TestTCPRunReportsRankFailure(t *testing.T) {
	start := time.Now()
	err := transporttest.TCP().Run(4, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return errors.New("rank 0 verdict")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 verdict") {
		t.Fatalf("Run returned %v, want rank 0's error", err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("Run took %v to report a rank failure", el)
	}
}
