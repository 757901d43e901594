package memo

// Test-only views of the store's internals for the external fuzz test
// (fuzz_test.go, package memo_test), which links the real codecs of exp
// and server and so cannot live inside this package.

// StoredEntry is one completed store entry.
type StoredEntry struct {
	Kind   byte
	Digest Digest
	Val    any
	Enc    []byte
}

// Entries lists the store's completed entries, most recently used first.
func (s *Store) Entries() []StoredEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []StoredEntry
	for el := s.order.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*Entry); e.done {
			out = append(out, StoredEntry{e.kind, e.digest, e.val, e.enc})
		}
	}
	return out
}

// CodecFor exposes the codec registry.
func CodecFor(kind byte) (Codec, bool) { return codecFor(kind) }
