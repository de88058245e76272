package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"plshuffle/internal/trace"
)

// Health is one rank's liveness verdict, served by /healthz. OK means every
// peer the transport tracks is believed alive; FailedPeers lists the world
// ranks reported dead (DESIGN.md §10's failure registry).
type Health struct {
	OK          bool  `json:"ok"`
	Rank        int   `json:"rank"`
	FailedPeers []int `json:"failed_peers,omitempty"`
}

// ServerConfig wires a Server's endpoints.
type ServerConfig struct {
	// Addr is the listen address (host:port). Port 0 binds an ephemeral
	// port (Addr() reports the bound one).
	Addr string
	// Registry backs /metrics. Required.
	Registry *Registry
	// Trace, when non-nil, backs /trace: Chrome chrome://tracing JSON by
	// default, the JSONL export with ?format=jsonl.
	Trace *trace.Recorder
	// Health, when non-nil, backs /healthz: 200 while OK, 503 once a peer
	// failure is recorded. When nil, /healthz always reports OK (an
	// inproc world has no independent peers to lose).
	Health func() Health
	// ClusterTargets, when non-nil, enables /cluster/metrics: the handler
	// scrapes each returned base URL's /metrics and streams the
	// concatenation — the rank-0 aggregation point of a distributed world.
	ClusterTargets func() []string
	// ScrapeTimeout bounds one upstream scrape of /cluster/metrics.
	// Default 2s.
	ScrapeTimeout time.Duration
}

// Server is one rank's telemetry HTTP endpoint. Create it with NewServer;
// it serves until Close, which shuts the listener and handlers down
// cleanly (no goroutine survives Close — the shutdown-leak test pins it).
type Server struct {
	cfg      ServerConfig
	ln       net.Listener
	srv      *http.Server
	done     chan struct{} // closed when Serve returns
	closeOne sync.Once
	closeErr error
}

// NewServer binds addr and starts serving the telemetry endpoints:
//
//	/metrics         Prometheus text exposition of cfg.Registry
//	/trace           Chrome trace JSON (?format=jsonl for JSON Lines)
//	/healthz         peer-failure state, 200 ok / 503 degraded
//	/debug/pprof/*   the standard Go profiling handlers
//	/cluster/metrics rank-0 aggregation (only with ClusterTargets)
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("telemetry: NewServer: nil Registry")
	}
	if cfg.ScrapeTimeout <= 0 {
		cfg.ScrapeTimeout = 2 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{cfg: cfg, ln: ln, done: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.Trace != nil {
		mux.HandleFunc("/trace", s.handleTrace)
	}
	if cfg.ClusterTargets != nil {
		mux.HandleFunc("/cluster/metrics", s.handleCluster)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(s.done)
		// Serve returns http.ErrServerClosed on Shutdown/Close — the
		// normal path; anything else died on its own and is surfaced by
		// Close.
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.closeErr = err
		}
	}()
	return s, nil
}

// Addr returns the bound listen address (resolves port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL, e.g. "http://127.0.0.1:8090".
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close shuts the server down: the listener closes immediately, in-flight
// handlers get a short grace period, and Close returns only after the serve
// goroutine has exited — the run's teardown leaks nothing.
func (s *Server) Close() error {
	s.closeOne.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			// Stragglers past the grace period are cut off hard.
			s.srv.Close()
		}
		<-s.done
	})
	return s.closeErr
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.cfg.Registry.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{OK: true}
	if s.cfg.Health != nil {
		h = s.cfg.Health()
	}
	w.Header().Set("Content-Type", "application/json")
	if !h.OK {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "", "chrome":
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChromeTrace(w, s.cfg.Trace.Events())
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		s.cfg.Trace.WriteJSONL(w)
	default:
		http.Error(w, "unknown format (want chrome or jsonl)", http.StatusBadRequest)
	}
}

// handleCluster streams the concatenation of every target rank's /metrics.
// Per-rank series already carry a rank label, so plain concatenation is a
// valid exposition as long as each family's HELP/TYPE header appears only
// once — headers after the first occurrence are filtered out here.
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	client := &http.Client{Timeout: s.cfg.ScrapeTimeout}
	seenHeader := make(map[string]bool)
	for i, base := range s.cfg.ClusterTargets() {
		body, err := scrape(client, base+"/metrics")
		if err != nil {
			fmt.Fprintf(w, "# cluster target %d (%s) unreachable: %v\n", i, base, err)
			continue
		}
		writeFiltered(w, body, seenHeader)
	}
}

func scrape(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}

// writeFiltered copies an exposition, dropping HELP/TYPE lines for families
// already emitted.
func writeFiltered(w io.Writer, body []byte, seen map[string]bool) {
	for len(body) > 0 {
		line := body
		if i := indexByte(body, '\n'); i >= 0 {
			line = body[:i+1]
			body = body[i+1:]
		} else {
			body = nil
		}
		if len(line) > 2 && line[0] == '#' {
			name := headerFamily(line)
			if name != "" {
				key := string(line[:min(len(line), 7)]) + name // "# HELP "/"# TYPE " + family
				if seen[key] {
					continue
				}
				seen[key] = true
			}
		}
		w.Write(line)
	}
}

// headerFamily extracts the family name from a "# HELP name ..." or
// "# TYPE name ..." line, or returns "".
func headerFamily(line []byte) string {
	const prefixLen = len("# HELP ")
	if len(line) < prefixLen {
		return ""
	}
	rest := line[prefixLen:]
	end := indexByte(rest, ' ')
	if end < 0 {
		if end = indexByte(rest, '\n'); end < 0 {
			end = len(rest)
		}
	}
	return string(rest[:end])
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// OffsetAddr returns addr with its port shifted by rank — the per-rank
// port-offset rule of a -launch world: the base -telemetry-addr names rank
// 0's endpoint, and rank r serves on port+r, so the launcher (and the
// rank-0 cluster aggregator) can address every rank's plane without any
// extra coordination.
func OffsetAddr(addr string, rank int) (string, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("telemetry: address %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("telemetry: address %q: non-numeric port: %w", addr, err)
	}
	if rank != 0 && port == 0 {
		return "", fmt.Errorf("telemetry: address %q: port 0 cannot be rank-offset (pick a fixed base port)", addr)
	}
	shifted := port
	if port != 0 {
		shifted = port + rank
		if shifted > 65535 {
			return "", fmt.Errorf("telemetry: address %q: port %d+%d exceeds 65535", addr, port, rank)
		}
	}
	return net.JoinHostPort(host, strconv.Itoa(shifted)), nil
}
