package shuffle

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
