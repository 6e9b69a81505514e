package sim

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the event-order golden file")

// mixWorkers and mixRounds size the seeded mix of TestEventOrderGolden.
const (
	mixWorkers = 4
	mixRounds  = 30
)

// runMix drives every kernel primitive from a seeded plan and logs each
// step as "virtual-time actor step". Workers pick one of Advance, zero
// Advance, Yield, a mailbox Put, a semaphore-guarded section, a Spawn of
// a child proc, or a bare At callback per round; some of them first wait
// on a Future or a Cond that bare callbacks resolve. A consumer drains the
// mailbox until every worker's done token arrived. With deadlock set, the
// consumer waits for one token too many and two more procs block forever
// (on a never-completed Future and on a Semaphore whose holder exits), so
// Run must report a DeadlockError.
func runMix(seed int64, deadlock bool) ([]string, error) {
	s := New()
	var log []string
	logf := func(actor, format string, args ...any) {
		log = append(log, fmt.Sprintf("%d %s %s", s.Now(), actor, fmt.Sprintf(format, args...)))
	}
	m := s.NewMailbox("m")
	f := s.NewFuture("f")
	c := s.NewCond("cv")
	sem := s.NewSemaphore("sem", 1)
	ready := false

	// Bare callbacks scheduled before the run: a chain that reschedules
	// itself, one that completes the future, one that broadcasts.
	var chain func(k int)
	chain = func(k int) {
		logf("cb", "chain %d", k)
		if k < 4 {
			s.After(Time(3+k), func() { chain(k + 1) })
		}
		m.Put(fmt.Sprintf("chain%d", k))
	}
	s.At(2, func() { chain(0) })
	s.At(7, func() {
		logf("cb", "complete f")
		f.Complete("fv")
	})
	s.At(12, func() {
		logf("cb", "broadcast cv")
		ready = true
		c.Broadcast()
	})

	for w := 0; w < mixWorkers; w++ {
		w := w
		r := rand.New(rand.NewSource(seed*100 + int64(w)))
		s.Spawn(fmt.Sprintf("w%d", w), func(p *Proc) {
			me := p.Name()
			switch w {
			case 0:
				logf(me, "future %v", f.Wait(p))
			case 1, 2:
				for !ready {
					c.Wait(p)
				}
				logf(me, "cond woke")
			}
			for k := 0; k < mixRounds; k++ {
				switch op := r.Intn(7); op {
				case 0:
					d := Time(1 + r.Intn(5))
					p.Advance(d)
					logf(me, "advance %d", d)
				case 1:
					p.Advance(0)
					logf(me, "advance 0")
				case 2:
					p.Yield()
					logf(me, "yield")
				case 3:
					m.Put(fmt.Sprintf("%s.%d", me, k))
					logf(me, "put %d", k)
				case 4:
					sem.Acquire(p)
					logf(me, "acquire")
					p.Advance(Time(1 + r.Intn(3)))
					sem.Release()
					logf(me, "release")
				case 5:
					child := fmt.Sprintf("%s.c%d", me, k)
					d := Time(r.Intn(4))
					s.Spawn(child, func(cp *Proc) {
						logf(cp.Name(), "start")
						cp.Advance(d)
						logf(cp.Name(), "advanced %d", d)
						cp.Yield()
						logf(cp.Name(), "end")
					})
					logf(me, "spawn %s", child)
				case 6:
					d := Time(r.Intn(6))
					k := k
					s.After(d, func() {
						logf("cb", "after %s.%d", me, k)
						if k%2 == 0 {
							m.Put(fmt.Sprintf("cb.%s.%d", me, k))
						}
					})
					logf(me, "after %d", d)
				}
			}
			m.Put("done")
			logf(me, "done")
		})
	}

	want := mixWorkers
	if deadlock {
		want++
	}
	s.Spawn("consumer", func(p *Proc) {
		for got := 0; got < want; {
			v := m.Get(p).(string)
			logf(p.Name(), "get %s", v)
			if v == "done" {
				got++
			}
			if m.Len() == 0 {
				p.Advance(1)
			}
		}
	})
	if deadlock {
		never := s.NewFuture("never")
		held := s.NewSemaphore("held", 1)
		s.Spawn("holder", func(p *Proc) {
			held.Acquire(p)
			p.Advance(3)
		})
		s.Spawn("orphan", func(p *Proc) { never.Wait(p) })
		s.Spawn("starved", func(p *Proc) {
			p.Advance(5)
			held.Acquire(p)
		})
	}
	err := s.Run()
	logf("sim", "end")
	return log, err
}

// TestEventOrderGolden pins the kernel's event order: the (virtual time,
// actor, step) trace of a seeded mix of every primitive must match the
// committed golden file line for line. Any change to how the kernel
// orders wake-ups, callbacks or spawns shows up here as a diff.
func TestEventOrderGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []int64{1, 2, 3} {
		log, err := runMix(seed, false)
		if err != nil {
			t.Fatalf("seed %d: Run() = %v", seed, err)
		}
		fmt.Fprintf(&b, "# seed %d\n%s\n", seed, strings.Join(log, "\n"))
	}
	got := b.String()
	path := filepath.Join("testdata", "event_order.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("event order differs from %s at line %d:\n got  %q\n want %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("event order differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestEventOrderDeadlockText pins the exact DeadlockError of the
// deadlocking variant of the mix: which procs are reported, in what
// order, and each one's park reason.
func TestEventOrderDeadlockText(t *testing.T) {
	const want = "sim: deadlock, 3 process(es) blocked: " +
		"consumer: mailbox m; orphan: future never; starved: semaphore held"
	_, err := runMix(1, true)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want a DeadlockError", err)
	}
	if err.Error() != want {
		t.Errorf("deadlock text:\n got  %q\n want %q", err.Error(), want)
	}
}
