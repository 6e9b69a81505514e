package sim

import "testing"

// The kernel microbenchmarks. Each sets its simulation up before the
// timer starts, so allocs/op counts only the steady-state event loop;
// CI fails if any of them reports a nonzero allocs/op.

// BenchmarkAdvancePingPong: two procs advancing in lockstep, so every
// wake-up hands control from one proc goroutine to the other.
func BenchmarkAdvancePingPong(b *testing.B) {
	s := New()
	for _, name := range []string{"ping", "pong"} {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAtCallback: a bare callback event that reschedules itself.
func BenchmarkAtCallback(b *testing.B) {
	s := New()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < b.N {
			s.After(1, tick)
		}
	}
	s.At(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMailboxPutGet: a producer puts one message per yield into a
// typed mailbox whose consumer is parked in Get.
func BenchmarkMailboxPutGet(b *testing.B) {
	s := New()
	m := NewMailboxOf[int](s, "m")
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if v := m.Get(p); v != i {
				b.Errorf("got %d, want %d", v, i)
			}
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			m.Put(i)
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
