// Package memo is the content-addressed result store behind every
// repeated-cell fast path in the evaluation stack. A campaign cell —
// (workload source, mode, configuration, fuel, seed and temporal axes) —
// is a pure, byte-deterministic function of its inputs (the assembly- and
// dispatch-equivalence gates pin exactly that), so its result can be
// keyed by a canonical sha256 digest of those inputs and replayed instead
// of recomputed. The store offers:
//
//   - Canonical digests (Digester plus the WorkloadDigest / RunDigest /
//     ChaosDigest / FootprintDigest compositions) with unambiguous field
//     framing — every variable-length field is length-prefixed, every
//     integer is fixed-width little-endian, and every digest kind carries
//     its own domain-separation prefix — so keys are stable across
//     platforms and releases. The golden vectors under testdata/ pin the
//     encoding; a deliberate key-schema change must bump digestVersion
//     and the vectors together.
//   - A concurrency-safe bounded in-memory LRU tier (Store) with the
//     /v1/run cache's pending-entry coalescing semantics (StartOrJoin /
//     Finish) alongside the plain Get / Put cell path. Hits are
//     zero-allocation: the stored value is returned as-is, so callers
//     share immutable results instead of re-deriving them.
//   - An optional disk-backed snapshot (SaveSnapshot / LoadSnapshot,
//     surfaced as -memo-dir on the CLIs) for warm CI and repeated local
//     runs. The format is self-describing (magic + version header) and
//     every entry carries its own sha256, so a corrupted or
//     version-skewed snapshot is detected and fallen back from — it can
//     cost warmth, never correctness.
package memo

import (
	"crypto/sha256"
	"encoding/hex"
)

// Digest is a canonical sha256 cell key.
type Digest [32]byte

// String renders the digest as lowercase hex (the golden-vector form).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// digestVersion is the key-schema version, part of every digest's
// domain-separation prefix. Bump it when the canonical encoding itself
// changes; the golden digest vectors must change in the same commit.
const digestVersion = "infat/memo/v1"

// Domain-separation prefixes: two digests of different kinds can never
// collide, because the kind is the first framed field hashed.
const (
	domainWorkload  = digestVersion + "/workload"
	domainRun       = digestVersion + "/run"
	domainChaos     = digestVersion + "/chaos"
	domainFootprint = digestVersion + "/footprint"
	// DomainCell is the prefix of evaluation-grid cell digests. The
	// composition lives in internal/exp (it folds in the machine cost
	// model, which memo must not import), but the domain is defined here
	// so every prefix is enumerated in one place.
	DomainCell = digestVersion + "/cell"
)

// Digester builds a canonical byte encoding and hashes it. The framing
// rules, relied on by the golden vectors:
//
//   - Init writes the domain string (length-prefixed) first.
//   - Str writes a u32 little-endian byte length, then the bytes —
//     so ("ab","c") and ("a","bc") encode differently.
//   - U64/U32 write fixed-width little-endian.
//   - Bool writes one byte (0/1); Raw writes a nested digest verbatim
//     (fixed 32 bytes, no prefix needed).
//
// The zero value plus Init is ready to use. Encoding happens in a
// fixed-size stack buffer so the hot hit path (digest + Store.Get)
// performs zero heap allocations; inputs that overflow the buffer spill
// to the heap transparently.
type Digester struct {
	n     int
	buf   [192]byte
	spill []byte // non-nil once buf overflowed; holds the full encoding
}

// Init resets the digester and frames the domain-separation prefix.
func (g *Digester) Init(domain string) {
	g.n = 0
	g.spill = nil
	g.Str(domain)
}

// Str appends a length-prefixed string field.
func (g *Digester) Str(s string) {
	g.U32(uint32(len(s)))
	if g.spill == nil && g.n+len(s) <= len(g.buf) {
		copy(g.buf[g.n:], s)
		g.n += len(s)
		return
	}
	g.overflow()
	g.spill = append(g.spill, s...)
}

// U32 appends a fixed-width little-endian uint32.
func (g *Digester) U32(v uint32) {
	if g.spill == nil && g.n+4 <= len(g.buf) {
		g.buf[g.n] = byte(v)
		g.buf[g.n+1] = byte(v >> 8)
		g.buf[g.n+2] = byte(v >> 16)
		g.buf[g.n+3] = byte(v >> 24)
		g.n += 4
		return
	}
	g.overflow()
	g.spill = append(g.spill, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a fixed-width little-endian uint64.
func (g *Digester) U64(v uint64) {
	g.U32(uint32(v))
	g.U32(uint32(v >> 32))
}

// Bool appends one byte: 1 for true, 0 for false.
func (g *Digester) Bool(b bool) {
	v := byte(0)
	if b {
		v = 1
	}
	if g.spill == nil && g.n < len(g.buf) {
		g.buf[g.n] = v
		g.n++
		return
	}
	g.overflow()
	g.spill = append(g.spill, v)
}

// Raw appends a nested digest verbatim (fixed width, so unambiguous
// without a length prefix).
func (g *Digester) Raw(d Digest) {
	if g.spill == nil && g.n+len(d) <= len(g.buf) {
		copy(g.buf[g.n:], d[:])
		g.n += len(d)
		return
	}
	g.overflow()
	g.spill = append(g.spill, d[:]...)
}

// overflow migrates the stack buffer to a heap spill slice; subsequent
// appends go there. Only inputs larger than the buffer pay this.
func (g *Digester) overflow() {
	if g.spill == nil {
		g.spill = append(make([]byte, 0, 2*len(g.buf)), g.buf[:g.n]...)
	}
}

// Sum returns the sha256 of the canonical encoding built so far.
func (g *Digester) Sum() Digest {
	if g.spill != nil {
		return sha256.Sum256(g.spill)
	}
	return sha256.Sum256(g.buf[:g.n])
}

// SourceDigest hashes raw program text — the content-address of a MiniC
// source, matching the sha256(source) the /v1/run cache has always keyed
// on. It is a plain content hash, not a framed composition, so it can be
// computed by anything that holds the bytes.
func SourceDigest(source string) Digest { return sha256.Sum256([]byte(source)) }

// WorkloadDigest is the content-address of one registered workload
// kernel: its name, suite, and the workloads package's kernel version
// (bumped whenever any kernel's observable behaviour changes, which
// invalidates every cell computed from it).
func WorkloadDigest(name, suite, version string) Digest {
	var g Digester
	g.Init(domainWorkload)
	g.Str(name)
	g.Str(suite)
	g.Str(version)
	return g.Sum()
}

// RunDigest keys one /v1/run result: the source content hash, the run
// mode, and the effective (post-clamp) fuel budget — exactly the triple
// the service's result LRU has keyed on since PR 2, in canonical form.
func RunDigest(source Digest, mode string, fuel uint64) Digest {
	var g Digester
	g.Init(domainRun)
	g.Raw(source)
	g.Str(mode)
	g.U64(fuel)
	return g.Sum()
}

// ChaosDigest keys one fault-injection cell: the (scheme, fault, seed)
// coordinates plus the chaos package's campaign version (bumped when the
// injected-fault semantics change).
func ChaosDigest(scheme, fault string, seed uint64, version string) Digest {
	var g Digester
	g.Init(domainChaos)
	g.Str(scheme)
	g.Str(fault)
	g.U64(seed)
	g.Str(version)
	return g.Sum()
}

// FootprintDigest keys one Figure-12 memory cell: the workload's content
// address (WorkloadDigest), the run mode, and the effective scale. The
// machine cost model is left out because a footprint does not depend on
// it; the domain keeps a memory cell, which runs untimed, from ever
// answering a perf cell at the same coordinates.
func FootprintDigest(workload Digest, mode string, scale uint64) Digest {
	var g Digester
	g.Init(domainFootprint)
	g.Raw(workload)
	g.Str(mode)
	g.U64(scale)
	return g.Sum()
}
