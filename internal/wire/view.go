package wire

// Re-owning helpers for messages decoded with UnmarshalView: a borrowed
// message's byte payloads are views into the receive buffer, valid only
// until the buffer is released back to the pool. A handler that retains
// payload bytes past its dispatch (a reply parked on a future, an update
// entry stashed for a fetch in flight) re-owns exactly what it keeps.
// Both walk the same field list as the codec, so a kind cannot carry a
// byte payload that Own forgets to copy.

// OwnEntry returns u with its payload (Diff or Full) deep-copied, safe
// to retain after the envelope it was decoded from is released.
func OwnEntry(u UpdateEntry) UpdateEntry {
	c := codec{mode: owning}
	u.walk(&c)
	return u
}

// Own returns a copy of msg with every borrowed byte payload deep-copied;
// a Batch re-owns each rider. The entry and record slices themselves are
// decoder-allocated (never borrowed), so their elements are rewritten in
// place.
func Own(msg Message) Message {
	c := codec{mode: owning}
	return c.message(msg)
}
