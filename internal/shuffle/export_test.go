package shuffle

import "sort"

// Scheduler methods that only tests call, kept beside them and exported so
// the external shuffle_test package sees them too.

// RunEpochExchange is the convenience bundle Scheduling → Communicate(-1)
// → Synchronize → CleanLocalStorage for callers that do not overlap.
func (s *Scheduler) RunEpochExchange(epoch int) error {
	if err := s.Scheduling(epoch); err != nil {
		return err
	}
	if err := s.Synchronize(); err != nil {
		return err
	}
	return s.CleanLocalStorage()
}

// DeadRanks returns the sorted ranks this scheduler has absorbed as dead.
func (s *Scheduler) DeadRanks() []int {
	out := make([]int, 0, len(s.dead))
	for r := range s.dead {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}
