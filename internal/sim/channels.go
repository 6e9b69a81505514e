package sim

// ring is a FIFO queue over a reused circular buffer: once it has grown
// to its peak length, pushing and popping allocate nothing.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(2*len(r.buf), 4))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// pop removes the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// Mailbox is an unbounded FIFO queue of messages of type T between
// simulated processes. Put may be called from process or event context;
// Get blocks the calling process until a message is available. Messages
// are held by value in a reused ring, so steady-state traffic through a
// mailbox allocates nothing.
type Mailbox[T any] struct {
	sim     *Sim
	name    string
	q       ring[T]
	waiters ring[*Proc]
}

// NewMailboxOf returns an empty mailbox of T. name appears in deadlock
// reports.
func NewMailboxOf[T any](s *Sim, name string) *Mailbox[T] {
	return &Mailbox[T]{sim: s, name: name}
}

// NewMailbox returns an empty mailbox of arbitrary values; see
// NewMailboxOf for a typed one.
func (s *Sim) NewMailbox(name string) *Mailbox[any] {
	return NewMailboxOf[any](s, name)
}

// Put appends v and wakes one waiting process, if any.
func (m *Mailbox[T]) Put(v T) {
	m.q.push(v)
	if m.waiters.n > 0 {
		m.waiters.pop().wakeLater()
	}
}

// Get removes and returns the oldest message, blocking p until one exists.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.q.n == 0 {
		m.waiters.push(p)
		p.park("mailbox", m.name)
	}
	return m.q.pop()
}

// TryGet removes and returns the oldest message without blocking.
func (m *Mailbox[T]) TryGet() (T, bool) {
	if m.q.n == 0 {
		var zero T
		return zero, false
	}
	return m.q.pop(), true
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return m.q.n }

// Future is a one-shot value that processes can wait on. It models a
// pending RPC reply: the requester parks on Wait and the dispatcher
// completes the future when the reply message arrives.
type Future struct {
	sim     *Sim
	name    string
	done    bool
	v       any
	waiters []*Proc
}

// NewFuture returns an incomplete future. name appears in deadlock reports.
func (s *Sim) NewFuture(name string) *Future {
	return &Future{sim: s, name: name}
}

// Complete resolves the future with v and wakes all waiters. Completing a
// future twice panics: a reply must arrive exactly once.
func (f *Future) Complete(v any) {
	if f.done {
		panic("sim: future " + f.name + " completed twice")
	}
	f.done = true
	f.v = v
	for _, w := range f.waiters {
		w.wakeLater()
	}
	f.waiters = nil
}

// Done reports whether the future has been completed.
func (f *Future) Done() bool { return f.done }

// Wait blocks p until the future completes, then returns its value.
func (f *Future) Wait(p *Proc) any {
	for !f.done {
		f.waiters = append(f.waiters, p)
		p.park("future", f.name)
	}
	return f.v
}

// Cond is a broadcast-only condition variable for simulated processes.
// The condition itself is re-checked by the caller in the usual loop.
type Cond struct {
	sim     *Sim
	name    string
	waiters []*Proc
}

// NewCond returns a condition variable. name appears in deadlock reports.
func (s *Sim) NewCond(name string) *Cond {
	return &Cond{sim: s, name: name}
}

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park("cond", c.name)
}

// Broadcast wakes every process parked on the condition.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		w.wakeLater()
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// Semaphore is a counting semaphore. Munin guards each object-directory
// entry with an "access control semaphore" (§3.2); because the simulated
// runtime can block mid-operation (e.g. while fetching a remote directory
// entry), mutual exclusion across block points still matters even though
// only one process runs at a time.
type Semaphore struct {
	sim     *Sim
	name    string
	n       int
	waiters ring[*Proc]
}

// NewSemaphore returns a semaphore with n initial permits.
func (s *Sim) NewSemaphore(name string, n int) *Semaphore {
	return &Semaphore{sim: s, name: name, n: n}
}

// Acquire takes a permit, blocking p until one is available.
func (sem *Semaphore) Acquire(p *Proc) {
	for sem.n == 0 {
		sem.waiters.push(p)
		p.park("semaphore", sem.name)
	}
	sem.n--
}

// Busy reports whether all permits are taken (some process holds the
// semaphore or is mid-operation under it).
func (sem *Semaphore) Busy() bool { return sem.n == 0 }

// TryAcquire takes a permit if one is available without blocking.
func (sem *Semaphore) TryAcquire() bool {
	if sem.n == 0 {
		return false
	}
	sem.n--
	return true
}

// Release returns a permit and wakes one waiter, if any.
func (sem *Semaphore) Release() {
	sem.n++
	if sem.waiters.n > 0 {
		sem.waiters.pop().wakeLater()
	}
}
