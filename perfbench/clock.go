package main

import (
	"syscall"
	"time"
)

// instant is a point on the two clocks the benchmark reads: wall time,
// and the CPU time the process has used so far (user and system, all
// threads). The end-to-end timings are CPU time: on a virtual machine
// whose host runs other guests, wall time also counts the time the host
// gives this guest's CPUs to others (steal), which came and went by the
// minute and doubled the wall time of the same set-up work between runs
// (README.md, Why CPU time). CPU time leaves it out.
type instant struct {
	wall time.Time
	cpu  time.Duration
}

func now() instant {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return instant{wall: time.Now(), cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func (t instant) isZero() bool { return t.wall.IsZero() }

// sub returns the wall and CPU time from u to t.
func (t instant) sub(u instant) (wall, cpu time.Duration) {
	return t.wall.Sub(u.wall), t.cpu - u.cpu
}

// samples are one measurement's values on both clocks, in the same
// order and unit.
type samples struct{ cpu, wall []float64 }

func (s *samples) add(cpu, wall float64) {
	s.cpu = append(s.cpu, cpu)
	s.wall = append(s.wall, wall)
}
