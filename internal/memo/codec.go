package memo

import "sync"

// A Codec rehydrates one entry kind from its canonical snapshot payload.
// Encoding is the caller's job (Put/Finish take the encoded bytes
// alongside the value, so the hot path never re-serializes); decoding is
// registered here because LoadSnapshot sees only (kind, payload) pairs
// and must map them back to typed values.
type Codec struct {
	// Decode parses a snapshot payload back into the value GetKind returns.
	// A nil error must mean the value round-trips: encoding it again
	// yields bytes that digest-check identically.
	Decode func(payload []byte) (any, error)
}

var (
	codecMu sync.RWMutex
	codecs  = map[byte]Codec{}
)

// RegisterKind installs the codec for one entry kind. Packages that
// define snapshot-worthy kinds (exp for cells, server for runs) register
// from an init function. Registering a kind twice panics — it means two
// packages disagree about the payload format.
func RegisterKind(kind byte, c Codec) {
	codecMu.Lock()
	defer codecMu.Unlock()
	if _, dup := codecs[kind]; dup {
		panic("memo: RegisterKind called twice for kind")
	}
	codecs[kind] = c
}

// codecFor returns the registered codec for kind, if any.
func codecFor(kind byte) (Codec, bool) {
	codecMu.RLock()
	defer codecMu.RUnlock()
	c, ok := codecs[kind]
	return c, ok
}
