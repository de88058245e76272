package cache

import (
	"fmt"
	"os"

	"plshuffle/internal/store/shard"
)

// segmentBytes is how much an unlimited tier's cache file grows at a time.
const segmentBytes = 8 << 20

// slots is the tier's landing area: one file on node-local storage,
// mapped once per segment (shard.MapShared: mmap where the platform has
// it, heap elsewhere) and cut into fixed-size slots that hold one shard
// each. A bounded tier maps all its slots in one segment on first use; an
// unlimited one adds segments as it fills. No per-shard file is ever
// created, written, mapped or unlinked.
type slots struct {
	f     *os.File
	width int64 // bytes per slot: the largest shard, rounded up to whole pages
	per   int   // slots per segment
	limit int   // most slots ever handed out; 0 = no limit
	segs  [][]byte
	unmap []func() error
	used  int   // slots handed out so far, free or not
	free  []int // returned slots, reused before the file grows
}

// open creates the cache file in dir (made if missing; empty is the
// system's temporary directory).
func (s *slots) open(dir string, maxShardBytes int64, limit int) (err error) {
	page := int64(os.Getpagesize())
	s.width = (maxShardBytes + page - 1) / page * page
	s.limit, s.per = limit, limit
	if limit == 0 {
		s.per = int(max(1, segmentBytes/s.width))
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	s.f, err = os.CreateTemp(dir, "plscache-*.shards")
	return err
}

// get returns a free slot, -1 when the limit is reached and none is free.
func (s *slots) get() (int, error) {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot, nil
	}
	if s.limit > 0 && s.used == s.limit {
		return -1, nil
	}
	if s.used == len(s.segs)*s.per {
		seg := int64(s.per) * s.width
		b, unmap, err := shard.MapShared(s.f, int64(len(s.segs))*seg, seg)
		if err != nil {
			return -1, fmt.Errorf("growing %s: %w", s.f.Name(), err)
		}
		s.segs, s.unmap = append(s.segs, b), append(s.unmap, unmap)
	}
	s.used++
	return s.used - 1, nil
}

func (s *slots) put(slot int) { s.free = append(s.free, slot) }

// buf is slot's memory.
func (s *slots) buf(slot int) []byte {
	off := int64(slot%s.per) * s.width
	return s.segs[slot/s.per][off : off+s.width]
}

func (s *slots) close() (err error) {
	for _, unmap := range s.unmap {
		if uerr := unmap(); err == nil {
			err = uerr
		}
	}
	s.f.Close()
	if rerr := os.Remove(s.f.Name()); err == nil {
		err = rerr
	}
	s.segs, s.unmap, s.f = nil, nil, nil
	return err
}
