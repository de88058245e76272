// Command plsrun runs a single distributed training configuration and
// prints the per-epoch accuracy curve and the run report.
//
// The world-size flag given picks the world; every kind runs the same
// per-rank program (internal/distrun):
//
//   - -workers N (the default, 8): N goroutine ranks in this process over
//     the inproc transport.
//   - -launch N: N OS processes over localhost TCP. plsrun reserves a
//     rendezvous port, forks N-1 copies of itself as -rank r -world N, and
//     plays rank 0 itself.
//   - -world N: this process is rank -rank of an N-rank TCP world that
//     forms at -rendezvous; start one per rank, on one host or many. -join
//     enters an already-running elastic world instead.
//
// Examples:
//
//	plsrun -dataset imagenet-50 -model resnet50 -workers 32 -strategy partial -q 0.3
//	plsrun -dataset cifar-100 -model inceptionv4 -workers 16 -strategy local -locality 0.9
//	plsrun -launch 4 -dataset imagenet-50 -strategy partial -q 0.25 -epochs 3 -timeout 2m
//	plsrun -launch 4 -strategy corgi2 -data-dir /data/in50 -cache-bytes 16777216 -group-epochs 5
//	plsrun -rank 1 -world 4 -rendezvous host0:7077 -strategy partial -q 0.25   # one per rank
//
// Every rank must be given identical training flags; the dataset, model,
// and initial partition are derived deterministically from the seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"plshuffle/internal/data"
	"plshuffle/internal/distrun"
)

func main() {
	opts := distrun.DefaultOptions()
	opts.Bind(flag.CommandLine)
	workers := flag.Int("workers", 8, "run as this many goroutine ranks in this process")
	launch := flag.Int("launch", 0, "run as this many OS processes over localhost TCP")
	flag.IntVar(&opts.World, "world", 1, "run as rank -rank of a TCP world of this many ranks (one process per rank)")
	flag.IntVar(&opts.Rank, "rank", 0, "with -world: this process's rank in [0, world)")
	flag.StringVar(&opts.Rendezvous, "rendezvous", "127.0.0.1:7077", "with -world: host:port rank 0 listens on for bootstrap")
	flag.BoolVar(&opts.Join, "join", false, "with -world: join an already-running elastic world instead of bootstrapping one: the root assigns a free slot and the members admit this rank at the next epoch boundary (-rank is ignored; all training flags must match the running world's)")
	listDatasets := flag.Bool("list-datasets", false, "list dataset keys and exit")
	flag.Parse()

	if *listDatasets {
		for _, k := range data.DatasetKeys() {
			info, _ := data.Info(k)
			fmt.Printf("%-14s %s (%d samples)\n", k, info.Name, info.RealN)
		}
		return
	}

	// A flag that belongs to another kind of world stops the run instead of
	// being silently ignored: one world-size flag at most, the per-rank flags
	// with -world only, and no wire to compress, peer process to lose or rank
	// slot to reserve among goroutine ranks.
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	refuse := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "plsrun: "+format+"\n", a...)
		os.Exit(2)
	}
	var sizes []string
	for _, name := range []string{"workers", "launch", "world"} {
		if given[name] {
			sizes = append(sizes, "-"+name)
		}
	}
	if len(sizes) > 1 {
		refuse("%s each size the world; give one", strings.Join(sizes, " and "))
	}
	for _, name := range []string{"rank", "rendezvous", "join"} {
		if given[name] && !given["world"] {
			refuse("-%s applies to one rank of a multi-process world only (add -world N)", name)
		}
	}
	for _, name := range []string{"wire-compress", "on-peer-fail", "max-world"} {
		if given[name] && !given["launch"] && !given["world"] {
			refuse("-%s applies to multi-process worlds only (add -launch N or -world N)", name)
		}
	}

	var err error
	switch {
	case given["launch"]:
		err = runLaunched(*launch, opts)
	case given["world"]:
		err = distrun.Run(opts, os.Stdout)
	default:
		opts.World = *workers
		err = distrun.RunInproc(opts, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
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

	args := append([]string{"-world", strconv.Itoa(world), "-rendezvous", opts.Rendezvous}, opts.Args()...)
	cmds := make([]*exec.Cmd, 0, world-1)
	for r := 1; r < world; r++ {
		cmd := exec.Command(exe, append([]string{"-rank", strconv.Itoa(r)}, args...)...)
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
