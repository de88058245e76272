package shuffle

// Planner vectors in the spectest style: one table-driven runner over a named
// preset, pinning every strategy's per-rank epoch plan by crc32c against
// testdata/plans.golden. Regenerate with
//
//	go test ./internal/shuffle -run TestPlanVectors -update
//
// and review the diff: a changed row is a changed plan, which breaks bitwise
// reproduction of every run and every snapshot on disk.

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"plshuffle/internal/store/shard"
)

var updateVectors = flag.Bool("update", false, "rewrite testdata/plans.golden from the current planner")

// planCase is one (strategy, world) the vectors pin over a run of epochs.
type planCase struct {
	name     string
	strategy Strategy
	n, m     int
	seed     uint64
	weights  map[int]float64 // nil = uniform
	// Corgi2 only: the shard count, each shard's sample count, and the
	// online-shuffle window in shards.
	shards       int
	shardSamples func(int) int
	window       int
}

// vectorPlan is what a row pins of one rank's epoch plan.
type vectorPlan struct {
	Order, SendIDs, Dests, Senders []int
	Windows                        [][]int
	Bounds                         []int
	Refs                           []shard.Ref
	Floor                          int
}

// vectorPreset returns the cases of a named preset.
func vectorPreset(t *testing.T, preset string) ([]planCase, int) {
	t.Helper()
	if preset != "minimal" {
		t.Fatalf("unknown preset %q", preset)
	}
	const seed, epochs, perShard = 2022, 3, 6
	strategies := []struct {
		name     string
		s        Strategy
		weighted bool
		window   int
	}{
		{"global", GlobalShuffling(), false, 0},
		{"global-w", GlobalShuffling(), true, 0},
		{"local", LocalShuffling(), false, 0},
		{"pls-q0.25", Partial(0.25), false, 0},
		{"pls-q0.5", Partial(0.5), false, 0},
		{"pls-q1", Partial(1), false, 0},
		{"pls-q0.5-w", Partial(0.5), true, 0},
		{"corgi2-g1-win0", Corgi2Shuffling(1), false, 0},
		{"corgi2-g1-win2", Corgi2Shuffling(1), false, 2},
		{"corgi2-g2-win0", Corgi2Shuffling(2), false, 0},
		{"corgi2-g2-win2", Corgi2Shuffling(2), false, 2},
	}
	var cases []planCase
	for _, n := range []int{64, 67} {
		// Synthetic shard layout: perShard samples per shard, the remainder
		// in a short last shard.
		shards := (n + perShard - 1) / perShard
		counts := func(sh int) int {
			if sh == shards-1 {
				return n - perShard*(shards-1)
			}
			return perShard
		}
		weights := make(map[int]float64, n)
		for id := 0; id < n; id++ {
			weights[id] = float64(id % 7) // multiples of 7 take the floor
		}
		for _, m := range []int{1, 4, 5} {
			for _, st := range strategies {
				c := planCase{name: st.name, strategy: st.s, n: n, m: m, seed: seed,
					shards: shards, shardSamples: counts, window: st.window}
				if st.weighted {
					c.weights = weights
				}
				cases = append(cases, c)
			}
		}
	}
	return cases, epochs
}

func TestPlanVectors(t *testing.T) {
	t.Run("minimal", func(t *testing.T) { runPlanVectors(t, "minimal") })
}

// runPlanVectors computes every case's plans epoch by epoch — carrying each
// rank's local IDs through the planned exchange, as the Scheduler's
// CleanLocalStorage does — and compares the rows with the golden file.
func runPlanVectors(t *testing.T, preset string) {
	cases, epochs := vectorPreset(t, preset)
	var out strings.Builder
	for _, c := range cases {
		local, err := Partition(c.n, c.m, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < epochs; epoch++ {
			plans := make([]vectorPlan, c.m)
			for r := range plans {
				if plans[r], err = planForVector(c, r, epoch, local[r]); err != nil {
					t.Fatalf("%s n=%d m=%d epoch %d rank %d: %v", c.name, c.n, c.m, epoch, r, err)
				}
			}
			checkSendersInvertDests(t, c, epoch, plans)
			fmt.Fprintf(&out, "%s/%s n=%d m=%d epoch=%d floor=%d", preset, c.name, c.n, c.m, epoch, plans[0].Floor)
			for _, f := range []struct {
				key string
				crc func(vectorPlan) uint32
			}{
				{"order", func(p vectorPlan) uint32 { return crcInts(p.Order) }},
				{"send", func(p vectorPlan) uint32 { return crcInts(p.SendIDs) }},
				{"dests", func(p vectorPlan) uint32 { return crcInts(p.Dests) }},
				{"senders", func(p vectorPlan) uint32 { return crcInts(p.Senders) }},
				{"windows", func(p vectorPlan) uint32 { return crcWindows(p.Windows) }},
				{"bounds", func(p vectorPlan) uint32 { return crcInts(p.Bounds) }},
				{"refs", func(p vectorPlan) uint32 { return crcRefs(p.Refs) }},
			} {
				crcs := make([]string, len(plans))
				for r, p := range plans {
					crcs[r] = fmt.Sprintf("%08x", f.crc(p))
				}
				fmt.Fprintf(&out, " %s=%s", f.key, strings.Join(crcs, ","))
			}
			out.WriteByte('\n')
			for r, p := range plans {
				if p.Floor != plans[0].Floor {
					t.Fatalf("%s n=%d m=%d epoch %d: rank %d floor %d, rank 0 floor %d", c.name, c.n, c.m, epoch, r, p.Floor, plans[0].Floor)
				}
			}
			local = applyExchange(local, plans)
		}
	}

	path := filepath.Join("testdata", "plans.golden")
	if *updateVectors {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}

// checkSendersInvertDests: slot i's sender toward rank d is the one rank
// whose slot-i destination is d.
func checkSendersInvertDests(t *testing.T, c planCase, epoch int, plans []vectorPlan) {
	t.Helper()
	for d, p := range plans {
		if len(p.Senders) != len(p.SendIDs) {
			t.Fatalf("%s n=%d m=%d epoch %d rank %d: %d senders for %d slots", c.name, c.n, c.m, epoch, d, len(p.Senders), len(p.SendIDs))
		}
		for i, s := range p.Senders {
			if s < 0 || s >= len(plans) || plans[s].Dests[i] != d {
				t.Fatalf("%s n=%d m=%d epoch %d rank %d slot %d: sender %d does not send here", c.name, c.n, c.m, epoch, d, i, s)
			}
		}
	}
}

// applyExchange moves every planned sample to its destination and returns
// the ranks' sorted local IDs (store.Local.IDs' order).
func applyExchange(local [][]int, plans []vectorPlan) [][]int {
	sets := make([]map[int]bool, len(local))
	for r, ids := range local {
		sets[r] = make(map[int]bool, len(ids))
		for _, id := range ids {
			sets[r][id] = true
		}
	}
	for r, p := range plans {
		for i, id := range p.SendIDs {
			delete(sets[r], id)
			sets[p.Dests[i]][id] = true
		}
	}
	out := make([][]int, len(local))
	for r, set := range sets {
		for id := range set {
			out[r] = append(out[r], id)
		}
		sort.Ints(out[r])
	}
	return out
}

var vectorTable = crc32.MakeTable(crc32.Castagnoli)

func crcInts(xs []int) uint32 {
	b := make([]byte, 0, 8*len(xs))
	for _, x := range xs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(x)))
	}
	return crc32.Checksum(b, vectorTable)
}

func crcWindows(ws [][]int) uint32 {
	var b []byte
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(w)))
		for _, x := range w {
			b = binary.LittleEndian.AppendUint64(b, uint64(int64(x)))
		}
	}
	return crc32.Checksum(b, vectorTable)
}

func crcRefs(refs []shard.Ref) uint32 {
	b := make([]byte, 0, 16*len(refs))
	for _, r := range refs {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(r.Shard)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(r.Index)))
	}
	return crc32.Checksum(b, vectorTable)
}
