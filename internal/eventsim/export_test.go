package eventsim

import "repro/internal/sim"

// Scheduler exposes the event clock to the tests.
func (s *Simulator) Scheduler() *sim.Scheduler { return s.sched }
