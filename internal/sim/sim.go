package sim

import (
	"fmt"
	"sort"
	"strings"
)

// event is a scheduled wake-up of process p or, when p is nil, a callback
// fn. Events with equal times run in scheduling order (seq), which makes
// the simulation fully deterministic.
type event struct {
	t   Time
	seq uint64
	p   *Proc
	fn  func()
}

func (e *event) before(o *event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events by (t, seq), holding values so
// that scheduling and popping allocate nothing once the backing array has
// grown to the run's peak queue length.
type eventHeap []event

func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the references held by the vacated slot
	q = q[:n]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < n && q[l].before(&q[least]) {
			least = l
		}
		if r := l + 1; r < n && q[r].before(&q[least]) {
			least = r
		}
		if least == i {
			break
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
	*h = q
	return top
}

// Sim is a discrete-event simulation. The zero value is not usable; call New.
//
// Exactly one goroutine runs at any instant. The event loop has no
// goroutine of its own: a parking process runs it until the next wake-up
// and hands control straight to the process woken (or keeps it, when the
// wake-up is its own), so code inside processes needs no locking and
// observes a consistent virtual clock.
type Sim struct {
	now     Time
	seq     uint64
	events  eventHeap
	polls   uint
	procs   []*Proc
	current *Proc
	// done tells Run's goroutine that the event loop has ended, and
	// during drain that an unwound process has exited.
	done     chan struct{}
	failure  error // first panic raised by a process or event callback
	stopErr  error // the interrupt's error, if it stopped the run
	stopped  bool
	draining bool
	// interrupt, if set, is polled periodically by the event loop; a
	// non-nil return stops it with that error (context cancellation).
	interrupt func() error
}

// New returns an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{done: make(chan struct{})}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn to run at virtual time t. fn runs in event context (on
// whichever goroutine holds control, with no process running) and must
// not block; it may schedule further events, complete futures, or post to
// mailboxes. Scheduling in the past is an error.
func (s *Sim) At(t Time, fn func()) {
	s.schedule(t, nil, fn)
}

// After schedules fn to run d from now. See At for the constraints on fn.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// wakeAt schedules process p to resume at virtual time t.
func (s *Sim) wakeAt(t Time, p *Proc) { s.schedule(t, p, nil) }

func (s *Sim) schedule(t Time, p *Proc, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	s.events.push(event{t: t, seq: s.seq, p: p, fn: fn})
}

// Spawn creates a new process named name executing fn and schedules it to
// start at the current virtual time. The name appears in deadlock reports.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		sim:   s,
		name:  name,
		wake:  make(chan struct{}),
		state: procBlocked,
	}
	s.procs = append(s.procs, p)
	go func() {
		<-p.wake
		if s.draining {
			// Woken only to unwind: the run ended before this process
			// ever started.
			p.state = procDone
			s.done <- struct{}{}
			return
		}
		s.current = p
		p.state = procRunning
		defer func() {
			if r := recover(); r != nil {
				if _, unwinding := r.(drainSignal); !unwinding && s.failure == nil {
					s.failure = panicError("process", r)
				}
			}
			p.state = procDone
			if s.draining {
				s.done <- struct{}{}
				return
			}
			s.current = nil
			s.switchTo(s.next())
		}()
		fn(p)
	}()
	s.wakeAt(s.now, p)
	return p
}

// panicError turns a recovered panic value into Run's error.
func panicError(what string, r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("sim: %s panic: %v", what, r)
}

// next runs the event loop on the calling goroutine: it pops events in
// (t, seq) order, running callbacks in place, until one wakes a process,
// and returns that process. It returns nil once the run is over: no
// events remain, a process or callback panicked, Stop was called, or the
// interrupt fired.
func (s *Sim) next() *Proc {
	for len(s.events) > 0 && s.failure == nil && !s.stopped {
		if s.interrupt != nil && s.polls%64 == 0 {
			if err := s.interrupt(); err != nil {
				s.stopped, s.stopErr = true, err
				break
			}
		}
		s.polls++
		e := s.events.pop()
		s.now = e.t
		if e.p == nil {
			s.call(e.fn)
		} else if e.p.state != procDone {
			return e.p
		}
	}
	return nil
}

// call runs an event callback, turning a panic into the run's failure
// whichever goroutine happens to run the loop.
func (s *Sim) call(fn func()) {
	defer func() {
		if r := recover(); r != nil && s.failure == nil {
			s.failure = panicError("event", r)
		}
	}()
	fn()
}

// switchTo passes control to p, or back to Run's goroutine when p is nil
// (the run is over). The caller must block or exit right after.
func (s *Sim) switchTo(p *Proc) {
	if p == nil {
		s.done <- struct{}{}
		return
	}
	p.wake <- struct{}{}
}

// DeadlockError reports processes still blocked when the event queue drained.
type DeadlockError struct {
	// Blocked lists "name: reason" for every parked process.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock, %d process(es) blocked: %s",
		len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// SetInterrupt installs a poll function the event loop calls between
// events (every few events, to keep the hot loop cheap). A non-nil return
// stops the run and becomes Run's error — this is how context
// cancellation reaches the single-threaded event loop.
func (s *Sim) SetInterrupt(f func() error) { s.interrupt = f }

// Run executes events until none remain, a process or event callback
// panics, or Stop is called. It returns the value a process panicked with
// (wrapped if needed), or a *DeadlockError if processes remain blocked
// with no pending events. A clean completion returns nil. However Run
// ends, processes still parked are unwound before it returns, so a
// stopped, canceled or deadlocked run leaks no goroutines.
//
// Run's goroutine only starts the event loop; from then on the loop runs
// on whichever process goroutine parks, and Run waits until it ends.
func (s *Sim) Run() error {
	if p := s.next(); p != nil {
		s.switchTo(p)
		<-s.done
	}
	err := s.result()
	s.drain()
	return err
}

// result is Run's error once the event loop has ended.
func (s *Sim) result() error {
	if s.failure != nil {
		return s.failure
	}
	if s.stopped {
		return s.stopErr
	}
	var blocked []string
	for _, p := range s.procs {
		if p.state == procBlocked {
			blocked = append(blocked, p.name+": "+p.blockReason())
		}
	}
	if len(blocked) > 0 {
		sort.Strings(blocked)
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// drainSignal unwinds a parked process once the run has ended.
type drainSignal struct{}

// drain resumes every still-parked process with the draining flag set:
// park (or the pre-start wait in Spawn) observes it and unwinds instead
// of continuing, so their goroutines exit now rather than living as
// long as the host process. Must run after the event loop has ended.
func (s *Sim) drain() {
	s.draining = true
	for i := 0; i < len(s.procs); i++ {
		if p := s.procs[i]; p.state == procBlocked {
			s.current = p
			p.wake <- struct{}{}
			<-s.done
		}
	}
	s.current = nil
}

// Stop makes Run return after the current event completes. Blocked
// processes are unwound before Run returns.
func (s *Sim) Stop() { s.stopped = true }
