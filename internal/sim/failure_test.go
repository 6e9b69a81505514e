package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settleGoroutines waits until the goroutine count is back to base and
// reports whether it got there. Run unwinds every proc before it returns,
// but a goroutine that has just signalled its exit may not be reaped yet.
func settleGoroutines(base int) (int, bool) {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n, n <= base
}

// TestCallbackPanicBecomesError: a panic inside an At callback ends the
// run with an error, whether the callback runs on Run's goroutine (no
// proc has started yet) or on the goroutine of a parking proc.
func TestCallbackPanicBecomesError(t *testing.T) {
	sentinel := errors.New("callback boom")
	t.Run("before-any-proc", func(t *testing.T) {
		s := New()
		// Scheduled before the spawn, so it runs first, at time 0.
		s.At(0, func() { panic(sentinel) })
		s.Spawn("late", func(p *Proc) { t.Error("proc started after the run failed") })
		if err := s.Run(); !errors.Is(err, sentinel) {
			t.Errorf("Run() = %v, want %v", err, sentinel)
		}
	})
	t.Run("while-proc-parks", func(t *testing.T) {
		s := New()
		after := false
		s.Spawn("w", func(p *Proc) {
			s.At(3, func() { panic("bad callback") })
			p.Advance(5)
			after = true
		})
		err := s.Run()
		if err == nil || err.Error() != "sim: event panic: bad callback" {
			t.Errorf("Run() = %v, want the callback's panic", err)
		}
		if after {
			t.Error("proc resumed after the run failed")
		}
	})
}

// TestRunLeavesNoGoroutines: however a run ends — by deadlock, by Stop,
// by context cancellation through the interrupt poll, or by a proc or
// callback panic — Run unwinds every proc it spawned (parked or
// never started), so the goroutine count returns to its baseline.
func TestRunLeavesNoGoroutines(t *testing.T) {
	type outcome func(t *testing.T, err error)
	wantNil := func(t *testing.T, err error) {
		if err != nil {
			t.Errorf("Run() = %v, want nil", err)
		}
	}
	cases := []struct {
		name  string
		setup func(s *Sim, m *Mailbox[any])
		check outcome
	}{
		{"deadlock", func(s *Sim, m *Mailbox[any]) {
			s.Spawn("feeder", func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Advance(1)
					m.Put(i)
				}
			})
		}, func(t *testing.T, err error) {
			// The consumers block forever on an emptied mailbox, the
			// semaphore waiter on a semaphore with no permits.
			var dl *DeadlockError
			if !errors.As(err, &dl) || len(dl.Blocked) != 4 {
				t.Errorf("Run() = %v, want a 4-proc deadlock", err)
			}
		}},
		{"stop", func(s *Sim, m *Mailbox[any]) {
			s.Spawn("stopper", func(p *Proc) {
				p.Advance(3)
				s.Stop()
				p.Advance(1)
			})
		}, wantNil},
		{"stop-before-start", func(s *Sim, m *Mailbox[any]) {
			// Spawned after the stopper at the same instant: never starts.
			s.Spawn("stopper", func(p *Proc) { s.Stop() })
			s.Spawn("unstarted", func(p *Proc) { t.Error("unstarted proc ran") })
		}, wantNil},
		{"interrupt", func(s *Sim, m *Mailbox[any]) {
			ctx, cancel := context.WithCancel(context.Background())
			s.SetInterrupt(ctx.Err)
			s.Spawn("spinner", func(p *Proc) {
				for i := 0; ; i++ {
					if i == 100 {
						cancel()
					}
					p.Advance(1)
				}
			})
		}, func(t *testing.T, err error) {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Run() = %v, want context.Canceled", err)
			}
		}},
		{"proc-panic", func(s *Sim, m *Mailbox[any]) {
			s.Spawn("panicker", func(p *Proc) {
				p.Advance(2)
				panic("proc boom")
			})
		}, func(t *testing.T, err error) {
			if err == nil || !strings.Contains(err.Error(), "proc boom") {
				t.Errorf("Run() = %v, want the proc's panic", err)
			}
		}},
		{"callback-panic", func(s *Sim, m *Mailbox[any]) {
			s.Spawn("ticker", func(p *Proc) {
				s.After(2, func() { panic("callback boom") })
				for {
					p.Advance(1)
				}
			})
		}, func(t *testing.T, err error) {
			if err == nil || !strings.Contains(err.Error(), "callback boom") {
				t.Errorf("Run() = %v, want the callback's panic", err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := New()
			m := s.NewMailbox("m")
			// Consumers that park on the mailbox, and a semaphore waiter:
			// parked procs the run must unwind.
			sem := s.NewSemaphore("sem", 0)
			for _, name := range []string{"c0", "c1", "c2"} {
				s.Spawn(name, func(p *Proc) {
					for {
						m.Get(p)
					}
				})
			}
			s.Spawn("sem-waiter", func(p *Proc) { sem.Acquire(p) })
			c.setup(s, m)
			c.check(t, s.Run())
			if n, ok := settleGoroutines(base); !ok {
				t.Errorf("goroutines: %d after Run, baseline %d", n, base)
			}
		})
	}
}
