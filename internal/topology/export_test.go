package topology

// RunLockStep advances the system n cycles on the lock-step reference
// schedule, the oracle the event-ordered Run is tested against.
func (s *System) RunLockStep(n int64) error {
	if err := s.runnable(); err != nil {
		return err
	}
	return s.runLockStep(n)
}

// EventOrdered reports whether Run takes the event-ordered schedule
// rather than falling back to lock-step.
func (s *System) EventOrdered() bool { return s.eventOrder() != nil }
