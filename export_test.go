package thetis

import "thetis/internal/faultio"

// Test hooks shared by the internal tests and the external (thetis_test)
// ones, which reach internal/server without an import cycle.

// failingSyncFile is a delta-log file whose fsync fails with
// faultio.ErrInjected: writes still land, durability does not.
type failingSyncFile struct{ deltaFile }

func (failingSyncFile) Sync() error { return faultio.ErrInjected }

// FailDeltaLogSyncs makes every later fsync of the attached delta log fail
// — a disk that starts erroring mid-serving.
func (s *System) FailDeltaLogSyncs() {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	s.delta.f = failingSyncFile{s.delta.f}
}

// HoldMaintenance takes the maintenance lock the way a running index build
// does and returns its release.
func (s *System) HoldMaintenance() (release func()) {
	s.maintMu.Lock()
	return s.maintMu.Unlock
}
