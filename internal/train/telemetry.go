package train

import (
	"strconv"
	"time"

	"plshuffle/internal/telemetry"
	"plshuffle/internal/transport"
)

// registerTelemetry binds this rank's live metrics into the registry
// (DESIGN.md §11, which holds the pls_* name registry). Nothing is counted
// here: every series reads a word its subsystem already owns — the worker's
// TrainMetrics and ControllerMetrics, mpi's collective sequence, the exchange
// scheduler's counters, the cache tier's and the transport's Stats — and
// reads it only when an HTTP scrape happens. Everything allocated or
// formatted happens HERE, once at startup.
func (w *worker) registerTelemetry(reg *telemetry.Registry) {
	rank := w.comm.Rank()
	l := telemetry.Labels{"rank": strconv.Itoa(rank)}

	w.tm.Register(reg, rank)
	w.tm.EpochsTotal.SetInt(int64(w.cfg.Epochs))
	w.tm.WorldSize.SetInt(int64(w.comm.GroupSize()))
	w.tm.Generation.SetInt(int64(w.comm.Generation()))

	// --- mpi runtime ---
	c := w.comm
	reg.CounterFunc("pls_mpi_collectives_total",
		"Collective operations launched (the internal sequence number).", l,
		func() float64 { return float64(c.CollSeq()) })
	reg.GaugeFunc("pls_mpi_inflight_collectives",
		"Non-blocking collectives currently in flight (gradient-overlap depth).", l,
		func() float64 { return float64(c.InflightCollectives()) })
	reg.GaugeFunc("pls_mpi_failed_peers",
		"World ranks the failure registry has recorded dead.", l,
		func() float64 { return float64(len(c.FailedPeers())) })

	// --- exchange scheduler (PLS only) ---
	if ex := w.exchanger; ex != nil {
		for _, dir := range []string{"sent", "recv"} {
			dir := dir
			ld := telemetry.Labels{"rank": l["rank"], "direction": dir}
			reg.CounterFunc("pls_exchange_wire_bytes_total",
				"Cumulative exchange wire volume (frame overhead included, self-sends excluded).", ld,
				func() float64 {
					s, r := ex.CumulativeWireTraffic()
					if dir == "sent" {
						return float64(s)
					}
					return float64(r)
				})
		}
		reg.GaugeFunc("pls_exchange_effective_q",
			"Shuffling fraction the current epoch realizes (its plan's q; 0 once a peer death reset it).", l,
			ex.EffectiveQ)
		reg.GaugeFunc("pls_exchange_epoch",
			"Most recently scheduled exchange epoch.", l,
			func() float64 { return float64(ex.ObservedEpoch()) })
		reg.CounterFunc("pls_exchange_dedup_hits",
			"Exchange samples shipped as dedup ID references instead of payloads (cumulative).", l,
			func() float64 { h, _ := ex.CumulativeDedup(); return float64(h) })
		reg.CounterFunc("pls_exchange_bytes_saved",
			"Exchange wire bytes the dedup references elided (cumulative; hypothetical full frames minus metered frames).", l,
			func() float64 { _, s := ex.CumulativeDedup(); return float64(s) })
	}

	// --- closed-loop shuffle controller (AutoQ / the schedule hook; DESIGN.md §16) ---
	if w.cfg.AutoQ || w.cfg.qSchedule != nil {
		w.cm.Register(reg, rank)
	}

	// --- storage hierarchy (Corgi2 only) ---
	if tr := w.tier; tr != nil {
		reg.CounterFunc("pls_store_cache_hits_total",
			"Shard acquisitions served from the node-local cache tier.", l,
			func() float64 { return float64(tr.Stats().Hits) })
		reg.CounterFunc("pls_store_cache_misses_total",
			"Shard acquisitions that paid a synchronous PFS fetch.", l,
			func() float64 { return float64(tr.Stats().Misses) })
		reg.CounterFunc("pls_store_cache_evictions_total",
			"Shards evicted from the cache tier to make room under the byte budget.", l,
			func() float64 { return float64(tr.Stats().Evictions) })
		reg.CounterFunc("pls_store_prefetch_bytes_total",
			"Bytes the background prefetcher pulled from the PFS tier ahead of use.", l,
			func() float64 { return float64(tr.Stats().PrefetchBytes) })
		reg.CounterFunc("pls_store_pfs_read_bytes_total",
			"Bytes fetched from the PFS tier (misses plus prefetches; real file bytes).", l,
			func() float64 { return float64(tr.Stats().PFSReadBytes) })
		reg.GaugeFunc("pls_store_pfs_read_seconds",
			"Cumulative wall-clock spent fetching shards from the PFS tier.", l,
			func() float64 { return float64(tr.Stats().PFSReadNs) / 1e9 })
		reg.GaugeFunc("pls_store_acquire_wait_seconds",
			"Cumulative wall-clock shard acquisitions spent blocked, on their own fetch or on a prefetch still in flight.", l,
			func() float64 { return float64(tr.Stats().WaitNs) / 1e9 })
		reg.GaugeFunc("pls_store_cache_used_bytes",
			"Bytes of shard files currently resident in the cache tier.", l,
			func() float64 { return float64(tr.Stats().UsedBytes) })
	}

	// --- transport ---
	conn := w.comm.Transport()
	for _, dir := range []string{"sent", "recv"} {
		dir := dir
		ld := telemetry.Labels{"rank": l["rank"], "direction": dir}
		reg.CounterFunc("pls_transport_bytes_total",
			"Bytes moved by the transport (real wire bytes on TCP, estimated encoded sizes inproc).", ld,
			func() float64 {
				st := conn.Stats()
				if dir == "sent" {
					return float64(st.BytesSent)
				}
				return float64(st.BytesRecv)
			})
		reg.CounterFunc("pls_transport_frames_total",
			"Frames moved by the transport.", ld,
			func() float64 {
				st := conn.Stats()
				if dir == "sent" {
					return float64(st.FramesSent)
				}
				return float64(st.FramesRecv)
			})
	}
	if conn.Stats().Wire {
		// A wire backend's Stats also decompose by frame kind and carry the
		// compressor's totals; without sockets both are zero by construction.
		kindNames := [transport.NumKinds]string{"data", "hello", "table", "", "ping", "dataz", "dataref"} // kind 3 is retired
		for k := 0; k < transport.NumKinds; k++ {
			if kindNames[k] == "" {
				continue
			}
			k := k
			for _, dir := range []string{"sent", "recv"} {
				dir := dir
				lk := telemetry.Labels{"rank": l["rank"], "direction": dir, "kind": kindNames[k]}
				reg.CounterFunc("pls_transport_frames_by_kind_total",
					"Frames moved by the transport, by wire kind (data, hello, table, ping, dataz, dataref).", lk,
					func() float64 {
						st := conn.Stats()
						if dir == "sent" {
							return float64(st.SentByKind[k])
						}
						return float64(st.RecvByKind[k])
					})
				reg.CounterFunc("pls_transport_frame_bytes_by_kind_total",
					"Wire bytes moved by the transport, by wire kind (post-compression frame sizes; zero on inproc).", lk,
					func() float64 {
						st := conn.Stats()
						if dir == "sent" {
							return float64(st.SentBytesByKind[k])
						}
						return float64(st.RecvBytesByKind[k])
					})
			}
		}
		reg.CounterFunc("pls_transport_compress_raw_bytes_total",
			"Payload-section bytes that entered the wire compressor (pre-compression).", l,
			func() float64 { return float64(conn.Stats().CompressRaw) })
		reg.CounterFunc("pls_transport_compress_wire_bytes_total",
			"Payload-section bytes the wire compressor actually shipped (post-compression).", l,
			func() float64 { return float64(conn.Stats().CompressWire) })
		reg.GaugeFunc("pls_transport_compression_ratio",
			"Raw/wire ratio over all frames the compressor shrank (1 = nothing compressed yet).", l,
			func() float64 {
				st := conn.Stats()
				if st.CompressWire == 0 {
					return 1
				}
				return float64(st.CompressRaw) / float64(st.CompressWire)
			})
	}
	if ls, ok := transport.AsLivenessStatser(conn); ok {
		for peer := 0; peer < w.comm.Size(); peer++ {
			if peer == rank {
				continue
			}
			peer := peer
			lp := telemetry.Labels{"rank": l["rank"], "peer": strconv.Itoa(peer)}
			reg.GaugeFunc("pls_transport_peer_silence_seconds",
				"Seconds since the transport last heard anything from the peer (-1 = never).", lp,
				func() float64 {
					t := ls.LastHeard(peer)
					if t.IsZero() {
						return -1
					}
					return time.Since(t).Seconds()
				})
		}
	}
}
