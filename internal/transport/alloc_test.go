package transport

import (
	"bufio"
	"errors"
	"net"
	"testing"

	"plshuffle/internal/data"
)

// TestAppendPayloadSteadyStateAllocs pins the zero-allocation property of
// the append-into-buffer encoder: once the destination buffer has grown to
// its steady-state capacity, re-encoding allocates nothing.
func TestAppendPayloadSteadyStateAllocs(t *testing.T) {
	skipIfRace(t)
	floats := make([]float32, 512)
	for i := range floats {
		floats[i] = float32(i)
	}
	batch := data.EncodeSampleBatch([]data.Sample{
		{ID: 1, Label: 2, Features: floats[:16], Bytes: 117 << 10},
		{ID: 2, Label: 3, Features: floats[:16], Bytes: 117 << 10},
	})
	for _, tc := range []struct {
		name    string
		payload any
	}{
		{"float32", floats},
		{"bytesBatch", batch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf []byte
			var err error
			// Warm up: grow buf to its final capacity.
			if buf, err = AppendPayload(buf[:0], tc.payload); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				buf, err = AppendPayload(buf[:0], tc.payload)
			})
			if err != nil {
				t.Fatal(err)
			}
			if allocs > 0 {
				t.Fatalf("steady-state AppendPayload allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}

// TestPooledFramePathSteadyStateAllocs drives the exact sequence the TCP
// sender uses per frame — GetWireBuf, AppendDataFrame, PutWireBuf — and
// asserts the steady state is allocation-free: the pool recycles the
// buffer, and framing appends into its retained capacity.
func TestPooledFramePathSteadyStateAllocs(t *testing.T) {
	skipIfRace(t)
	raw := make([]byte, 4096)
	for i := range raw {
		raw[i] = byte(i)
	}
	// Box once, as tcp.Send receives it: the payload is already an `any` by
	// the time it reaches the framing path.
	var payload any = raw
	// Warm up the pool and the buffer capacity.
	for i := 0; i < 4; i++ {
		wb := GetWireBuf()
		var err error
		wb.B, err = AppendDataFrame(wb.B[:0], 0, 1, 7, payload)
		if err != nil {
			t.Fatal(err)
		}
		PutWireBuf(wb)
	}
	var encodeErr error
	allocs := testing.AllocsPerRun(200, func() {
		wb := GetWireBuf()
		wb.B, encodeErr = AppendDataFrame(wb.B[:0], 0, 1, 7, payload)
		PutWireBuf(wb)
	})
	if encodeErr != nil {
		t.Fatal(encodeErr)
	}
	if allocs > 0 {
		t.Fatalf("pooled frame path allocates %.1f times per frame, want 0", allocs)
	}
}

// TestPooledBatchReceiveSteadyStateAllocs is the receive-side twin of the
// gate above: what the exchange does per inbound sample-batch frame —
// ReadFrameInto off a real TCP socket (the body lands in a GetBytes buffer),
// the batch decoded into feature arrays earlier samples gave back
// (data.FeatureSource), the body released with PutBytes — allocates nothing
// once warm, when every sample finds a recycled array.
func TestPooledBatchReceiveSteadyStateAllocs(t *testing.T) {
	skipIfRace(t)
	const warm, runs = 4, 200
	samples := make([]data.Sample, 16)
	for i := range samples {
		fs := make([]float32, 2048) // 8 KiB, the exchange workloads' sample
		for j := range fs {
			fs[j] = float32(i*len(fs)+j) * 0.25
		}
		samples[i] = data.Sample{ID: i, Label: i % 10, Features: fs, Bytes: 8 << 10}
	}
	frame, err := AppendDataFrame(nil, 1, 0, 7, data.EncodeSampleBatch(samples))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sent := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			defer conn.Close()
			// AllocsPerRun calls the function once more before it counts.
			for i := 0; i < warm+1+runs && err == nil; i++ {
				_, err = conn.Write(frame)
			}
		}
		sent <- err
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 64<<10)
	var (
		scratch []byte
		src     data.FeatureSource
		got     []data.Sample
		recvErr error
	)
	receive := func() {
		f, _, body, _, err := ReadFrameInto(br, &scratch)
		if err == nil && (body == nil || f.Tag != 7) {
			err = errFrameShape
		}
		if err != nil {
			recvErr = err
			return
		}
		got, err = src.DecodeSampleBatchInto(got[:0], body)
		PutBytes(body)
		if err != nil {
			recvErr = err
			return
		}
		for _, s := range got {
			src.Recycle(s.Features) // as CleanLocalStorage does with sent samples
		}
	}
	for i := 0; i < warm; i++ {
		receive()
	}
	allocs := testing.AllocsPerRun(runs, receive)
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s.ID != samples[i].ID || s.Features[2047] != samples[i].Features[2047] {
			t.Fatalf("sample %d decoded as %d with last feature %v", i, s.ID, s.Features[2047])
		}
	}
	if allocs > 0 {
		t.Fatalf("receiving and decoding a pooled sample-batch frame allocates %.1f times per frame, want 0", allocs)
	}
}

// errFrameShape reports a frame that did not come back as a pooled []byte
// body on the expected tag.
var errFrameShape = errors.New("frame did not take the pooled []byte path")

// TestAppendDataFrameMatchesMarshalFrame pins that the pooled path emits
// byte-identical frames to the allocating MarshalFrame path, so switching
// the TCP sender over cannot change anything on the wire.
func TestAppendDataFrameMatchesMarshalFrame(t *testing.T) {
	payloads := []any{
		[]byte{1, 2, 3},
		[]float32{1.5, -2.5},
		[]byte("hello"),
		nil,
	}
	for _, p := range payloads {
		enc, err := EncodePayload(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MarshalFrame(WireFrame{Kind: KindData, Src: 2, Dst: 5, Tag: -42, Payload: enc})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendDataFrame(nil, 2, 5, -42, p)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("payload %T: AppendDataFrame differs from MarshalFrame:\n got  %x\n want %x", p, got, want)
		}
	}
	// Neither path frames a single sample (retired code 12).
	if _, err := AppendDataFrame(nil, 2, 5, -42, data.Sample{ID: 3, Features: []float32{9}}); err == nil {
		t.Fatal("AppendDataFrame framed a data.Sample")
	}
}

// TestWireBufPoolDropsOversizeBuffers verifies the pool does not pin giant
// buffers: a buffer past the cap is dropped on Put rather than recycled.
func TestWireBufPoolDropsOversizeBuffers(t *testing.T) {
	wb := GetWireBuf()
	wb.B = make([]byte, maxPooledWireBuf+1)
	PutWireBuf(wb) // must not retain; nothing observable to assert beyond not panicking
	got := GetWireBuf()
	if cap(got.B) > maxPooledWireBuf {
		t.Fatalf("pool returned an oversize buffer of cap %d", cap(got.B))
	}
	PutWireBuf(got)
}

// skipIfRace skips allocation-regression tests under the race detector
// (see raceEnabled).
func skipIfRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}
