package cache

import (
	"fmt"
	"io"

	"plshuffle/internal/store/shard"
)

// EpochStream reads one epoch's samples in a precomputed order through the
// cache tier. The order is grouped into windows of shards: all shards of
// the current window are pinned while its samples stream out, and the
// tier, which holds the whole window sequence, lands the following windows
// in the background — so under Corgi²'s online shuffle the PFS fetches
// overlap the current window's compute.
//
// The plan (windows, bounds, order) is computed upstream as a pure function
// of (seed, epoch, rank, window size); the stream only executes it, which
// is what keeps training bitwise independent of cache behaviour.
type EpochStream struct {
	t       *Tier
	windows [][]int     // windows[w] = shard IDs pinned together
	bounds  []int       // bounds[w] = index in order where window w starts; len = len(windows)+1
	order   []shard.Ref // the epoch's sample sequence
	pos     int
	win     int // current window; -1 before the first read
	cur     map[int]*shard.Shard
}

// OpenEpoch starts streaming an epoch plan and hands the tier its shard
// sequence (the windows, in order) to evict and prefetch by. bounds must have
// len(windows)+1 entries, start at 0, end at len(order), and be
// non-decreasing; every order entry in window w must name a shard listed
// in windows[w].
func (t *Tier) OpenEpoch(windows [][]int, bounds []int, order []shard.Ref) (*EpochStream, error) {
	if len(bounds) != len(windows)+1 || len(bounds) == 0 || bounds[0] != 0 || bounds[len(bounds)-1] != len(order) {
		return nil, fmt.Errorf("cache: OpenEpoch: malformed bounds (windows=%d bounds=%d order=%d)",
			len(windows), len(bounds), len(order))
	}
	for w := 0; w < len(windows); w++ {
		if bounds[w] > bounds[w+1] {
			return nil, fmt.Errorf("cache: OpenEpoch: bounds decrease at window %d", w)
		}
	}
	t.setPlan(windows)
	return &EpochStream{
		t:       t,
		windows: windows,
		bounds:  bounds,
		order:   order,
		win:     -1,
		cur:     make(map[int]*shard.Shard),
	}, nil
}

// advance releases the previous window's pins and pins window w.
func (es *EpochStream) advance(w int) error {
	es.release()
	es.win = w
	for _, id := range es.windows[w] {
		sh, err := es.t.Acquire(id)
		if err != nil {
			es.release()
			return err
		}
		es.cur[id] = sh
	}
	return nil
}

func (es *EpochStream) release() {
	for id := range es.cur {
		es.t.Release(id)
		delete(es.cur, id)
	}
}

// ReadInto copies the next sample's features into feat and returns its
// metadata; io.EOF after the last sample. Zero allocations in steady state.
func (es *EpochStream) ReadInto(feat []float32) (id, label int, sim int64, err error) {
	if es.pos >= len(es.order) {
		return 0, 0, 0, io.EOF
	}
	for es.win+1 < len(es.windows) && es.pos >= es.bounds[es.win+1] {
		if err := es.advance(es.win + 1); err != nil {
			return 0, 0, 0, err
		}
	}
	ref := es.order[es.pos]
	sh, ok := es.cur[ref.Shard]
	if !ok {
		return 0, 0, 0, fmt.Errorf("cache: epoch plan names shard %d outside window %d", ref.Shard, es.win)
	}
	id, label, sim, _, err = sh.ReadInto(ref.Index, feat)
	if err != nil {
		return 0, 0, 0, err
	}
	es.pos++
	return id, label, sim, nil
}

// Remaining returns how many samples are left in the epoch.
func (es *EpochStream) Remaining() int { return len(es.order) - es.pos }

// Close releases the stream's pins and takes the windows it never reached
// out of the tier's plan. The shards stay cached for the next epoch until
// the plan has a better use for their slots.
func (es *EpochStream) Close() {
	es.release()
	for es.win++; es.win < len(es.windows); es.win++ {
		es.t.skip(es.windows[es.win])
	}
}
