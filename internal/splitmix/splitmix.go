// Package splitmix is the repository's one seeded pseudorandom stream,
// splitmix64: tiny, deterministic, and independent of math/rand's global
// state, so chaos fault choices, shard probe jitter, network fault
// choices and MAC keys all reproduce exactly under a seed.
package splitmix

// Stream is a splitmix64 stream.
type Stream struct{ s uint64 }

// New returns a stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{s: seed} }

// Next returns the stream's next 64-bit value.
func (r *Stream) Next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Intn returns a deterministic value in [0, n).
func (r *Stream) Intn(n int) int { return int(r.Next() % uint64(n)) }
