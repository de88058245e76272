// Command plsrun runs a single distributed training configuration and
// prints the per-epoch accuracy curve and phase accounting.
//
// By default the workers are goroutines in this process (the inproc
// transport). With -launch N the same configuration runs as N OS processes
// exchanging samples and gradients over localhost TCP: plsrun reserves a
// rendezvous port, forks N-1 copies of itself as worker ranks, and plays
// rank 0 itself.
//
// Examples:
//
//	plsrun -dataset imagenet-50 -model resnet50 -workers 32 -strategy partial -q 0.3
//	plsrun -dataset cifar-100 -model inceptionv4 -workers 16 -strategy local -locality 0.9
//	plsrun -launch 4 -dataset imagenet-50 -strategy partial -q 0.25 -epochs 3 -timeout 2m
//	plsrun -launch 4 -strategy corgi2 -data-dir /data/in50 -cache-bytes 16777216 -group-epochs 5
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"plshuffle"
	"plshuffle/internal/distrun"
)

func main() {
	opts := distrun.DefaultOptions()
	opts.Epochs = 15
	opts.Bind(flag.CommandLine)
	workers := flag.Int("workers", 8, "number of data-parallel workers")
	launch := flag.Int("launch", 0, "run as this many OS processes over localhost TCP (0 = in-process goroutines)")
	saveWeights := flag.String("save-weights", "", "write the trained model checkpoint to this file")
	listDatasets := flag.Bool("list-datasets", false, "list dataset keys and exit")
	workerRank := flag.Int("worker-rank", -1, "internal: play one rank of a -launch world")
	flag.StringVar(&opts.Rendezvous, "rendezvous", "", "internal: rendezvous address of a -launch world")
	flag.Parse()

	if *listDatasets {
		for _, k := range plshuffle.PaperDatasets() {
			info, _ := plshuffle.PaperDatasetInfo(k)
			fmt.Printf("%-14s %s (%d samples)\n", k, info.Name, info.RealN)
		}
		return
	}

	if *workerRank >= 0 {
		// Forked worker: play one rank of the distributed world and exit.
		opts.Rank = *workerRank
		opts.World = *launch
		if err := distrun.Run(opts, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *launch > 0 {
		if err := runLaunched(*launch, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Goroutine workers share one process: there is no wire to compress, no
	// peer process to lose and no rank slot to join. Say so instead of
	// silently ignoring the request.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "wire-compress", "on-peer-fail", "max-world":
			fmt.Fprintf(os.Stderr, "plsrun: -%s applies to multi-process worlds only (add -launch N)\n", f.Name)
			os.Exit(2)
		}
	})
	runInproc(*workers, opts, *saveWeights)
}

// runLaunched forks world-1 copies of this binary as worker ranks and plays
// rank 0 itself, all connected over localhost TCP.
func runLaunched(world int, opts distrun.Options) error {
	if world < 1 {
		return fmt.Errorf("plsrun: -launch %d: need at least one rank", world)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("plsrun: locating own binary: %w", err)
	}
	// Reserve the rendezvous port race-free: bind it here, hand the listener
	// to rank 0, and advertise the bound address to the forked workers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("plsrun: reserving rendezvous port: %w", err)
	}
	opts.Rank = 0
	opts.World = world
	opts.Rendezvous = ln.Addr().String()
	opts.RendezvousListener = ln

	args := append([]string{"-launch", strconv.Itoa(world), "-rendezvous", opts.Rendezvous}, opts.Args()...)
	cmds := make([]*exec.Cmd, 0, world-1)
	for r := 1; r < world; r++ {
		cmd := exec.Command(exe, append([]string{"-worker-rank", strconv.Itoa(r)}, args...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds {
				c.Process.Kill()
				c.Wait()
			}
			return fmt.Errorf("plsrun: starting worker rank %d: %w", r, err)
		}
		cmds = append(cmds, cmd)
	}

	// Collect every rank's outcome before deciding: a failure report that
	// names each rank's exit code (each rank's stderr line already carries
	// its last completed trace phase) beats a bare first error.
	rank0Err := distrun.Run(opts, os.Stdout)
	status := make([]string, world)
	status[0] = "ok"
	if rank0Err != nil {
		status[0] = "failed: " + rank0Err.Error()
	}
	// Under -on-peer-fail=degrade a dead worker is tolerated by design: if
	// rank 0 completed, the survivors finished the run with a reduced
	// effective Q, and the launcher reports the death without failing.
	tolerateDeaths := opts.OnPeerFail == "degrade" && rank0Err == nil
	failed := rank0Err != nil
	deaths := false
	for i, cmd := range cmds {
		werr := cmd.Wait()
		switch {
		case werr == nil:
			status[i+1] = "ok (exit 0)"
		case tolerateDeaths:
			deaths = true
			status[i+1] = fmt.Sprintf("died (%v) — tolerated, world degraded", werr)
		default:
			failed = true
			var ee *exec.ExitError
			if errors.As(werr, &ee) {
				status[i+1] = fmt.Sprintf("exit %d (reason on its stderr line above)", ee.ExitCode())
			} else {
				status[i+1] = werr.Error()
			}
		}
	}
	if !failed && !deaths {
		return nil
	}
	verdict := "failed"
	if !failed {
		verdict = "completed degraded"
	}
	fmt.Fprintf(os.Stderr, "plsrun: launched world %s; per-rank report:\n", verdict)
	for r, s := range status {
		fmt.Fprintf(os.Stderr, "  rank %d: %s\n", r, s)
	}
	if !failed {
		return nil
	}
	return fmt.Errorf("plsrun: %d-rank launched world failed (per-rank report above)", world)
}

// runInproc is the original single-process path (goroutine workers).
func runInproc(workers int, opts distrun.Options, saveWeights string) {
	cfg, err := opts.TrainConfig()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Workers = workers

	// Inproc telemetry: all workers are goroutines sharing one registry, so
	// a single server on the base address exposes the whole "world" — every
	// per-rank series is distinguished by its {rank=...} label.
	if opts.TelemetryAddr != "" {
		cfg.Telemetry = plshuffle.NewTelemetryRegistry()
		cfg.Trace = plshuffle.NewTraceRecorder()
		srv, err := plshuffle.NewTelemetryServer(plshuffle.TelemetryServerConfig{
			Addr:     opts.TelemetryAddr,
			Registry: cfg.Telemetry,
			Trace:    cfg.Trace,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "plsrun: telemetry listen %s: %v\n", opts.TelemetryAddr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("telemetry: http://%s/metrics (also /trace, /healthz, /debug/pprof)\n", srv.Addr())
	}

	type trained struct {
		res *plshuffle.TrainResult
		err error
	}
	done := make(chan trained, 1)
	go func() {
		res, err := plshuffle.Train(cfg)
		done <- trained{res, err}
	}()
	var t trained
	if opts.Timeout > 0 {
		select {
		case t = <-done:
		case <-time.After(opts.Timeout):
			fmt.Fprintf(os.Stderr, "plsrun: run made no progress within %v; aborting instead of hanging\n", opts.Timeout)
			os.Exit(1)
		}
	} else {
		t = <-done
	}
	if t.err != nil {
		fmt.Fprintln(os.Stderr, t.err)
		os.Exit(1)
	}
	res := t.res

	fmt.Printf("%s on %s proxy, %d workers, strategy %s (locality %.2f)\n",
		opts.Model, opts.DatasetLabel(cfg), workers, cfg.Strategy, opts.Locality)
	fmt.Printf("%-6s  %-8s  %-8s  %-12s  %-12s\n", "epoch", "loss", "val-acc", "local-read", "exchanged")
	for _, e := range res.Epochs {
		fmt.Printf("%-6d  %-8.4f  %-8.4f  %-12d  %-12d\n",
			e.Epoch+1, e.TrainLoss, e.ValAcc, e.LocalReadBytes, e.ExchangeBytes)
	}
	fmt.Printf("final=%.4f best=%.4f peak-storage/worker=%d bytes\n",
		res.FinalValAcc, res.BestValAcc, res.PeakStorageBytes)
	if opts.AutoQ {
		fmt.Printf("controller q trajectory:")
		for _, e := range res.Epochs {
			fmt.Printf(" %g(%s)", e.ControllerQ, e.ControllerReason)
		}
		fmt.Println()
	}
	if saveWeights != "" {
		f, err := os.Create(saveWeights)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := plshuffle.SaveWeights(f, res.FinalModel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", saveWeights)
	}
}
