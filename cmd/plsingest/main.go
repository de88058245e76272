// Command plsingest writes a dataset into an immutable sharded on-disk
// store: checksummed shard files holding the training samples in ID order,
// one extra file for the validation split, and a JSON manifest describing
// the layout. The output directory models the slow shared "PFS" tier that
// plsrun streams from under -strategy=corgi2, with each rank pulling
// shards through its bounded node-local cache.
//
// Ingest a paper proxy dataset and train from it:
//
//	plsingest -dataset imagenet-50 -out /data/in50 -samples-per-shard 256
//	plsrun -launch 4 -strategy corgi2 -data-dir /data/in50 \
//	       -cache-bytes 16777216 -group-epochs 5 -model mlp
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"plshuffle/internal/data"
	"plshuffle/internal/store/shard"
)

func main() {
	dataset := flag.String("dataset", "imagenet-50", "paper dataset key to ingest (see plsrun -list-datasets)")
	out := flag.String("out", "", "output directory for the sharded store (required; must not hold a dataset already)")
	perShard := flag.Int("samples-per-shard", 256, "training samples packed into each shard file")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "plsingest: -out is required")
		os.Exit(2)
	}
	if _, err := os.Stat(filepath.Join(*out, "MANIFEST.json")); err == nil {
		fmt.Fprintf(os.Stderr, "plsingest: %s already holds an ingested dataset; refusing to overwrite (remove the directory first)\n", *out)
		os.Exit(1)
	}
	ds, err := data.LoadProxy(*dataset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	man, err := shard.Ingest(*out, ds, *perShard)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var shardBytes int64
	for _, b := range man.ShardFileBytes {
		shardBytes += b
	}
	fmt.Printf("ingested %s: %d samples in %d shards (%d per shard), %d classes, dim %d\n",
		*dataset, man.NumSamples, man.NumShards, man.SamplesPerShard, man.Classes, man.FeatureDim)
	fmt.Printf("  train %d bytes on disk (largest shard %d), val %d samples (%d bytes)\n",
		shardBytes, man.MaxShardBytes(), man.NumVal, man.ValFileBytes)
	fmt.Printf("  manifest: %s\n", *out+"/MANIFEST.json")
}
