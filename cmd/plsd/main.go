// Command plsd is the single-rank worker daemon: it plays exactly one rank
// of a distributed training world over the TCP transport. Start one plsd
// per rank (on one host or many), pointing them all at the same rendezvous
// address; rank 0 binds the rendezvous and prints the run report.
//
// A 4-rank world on one machine:
//
//	plsd -rank 0 -world 4 -rendezvous 127.0.0.1:7077 -strategy partial -q 0.25 &
//	plsd -rank 1 -world 4 -rendezvous 127.0.0.1:7077 -strategy partial -q 0.25 &
//	plsd -rank 2 -world 4 -rendezvous 127.0.0.1:7077 -strategy partial -q 0.25 &
//	plsd -rank 3 -world 4 -rendezvous 127.0.0.1:7077 -strategy partial -q 0.25
//
// Every rank must be given identical training flags; the dataset, model,
// and initial partition are derived deterministically from the seed.
package main

import (
	"flag"
	"fmt"
	"os"

	"plshuffle/internal/distrun"
)

func main() {
	opts := distrun.DefaultOptions()
	opts.Bind(flag.CommandLine)
	flag.IntVar(&opts.Rank, "rank", 0, "this process's rank in [0, world)")
	flag.IntVar(&opts.World, "world", 1, "number of ranks in the world")
	flag.StringVar(&opts.Rendezvous, "rendezvous", "127.0.0.1:7077", "host:port rank 0 listens on for bootstrap")
	flag.BoolVar(&opts.Join, "join", false, "join an already-running elastic world instead of bootstrapping one: the root assigns a free slot and the members admit this rank at the next epoch boundary (-rank is ignored; all training flags must match the running world's)")
	flag.Parse()

	if err := distrun.Run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
