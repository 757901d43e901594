package minic

import (
	"errors"

	"infat/internal/memo"
)

// programCap bounds the compile cache. Compiled programs are small (a
// few KiB of bytecode for typical workloads), so even the cap's worth of
// entries is modest; campaigns use a handful of sources, and a
// long-lived ifp-serve fed unbounded distinct sources stays bounded.
const programCap = 1024

// programs is the process-wide compile cache behind ExecuteBudget: a
// memo.Store of memo.KindProgram entries keyed by sha256(source), each
// holding the compiled and lowered program (or the error that rejected
// the source), so a MiniC source run under several modes — a /v1/run
// program, a Juliet case, a minicc input — compiles exactly once.
//
// Sharing is sound because compilation is a pure function of the source
// bytes and a Compiled is read-only after construction (see the Compiled
// doc comment). Parse, compile and lowering errors are kept too
// (negative entries): they are equally deterministic. Eviction only
// drops the cache's own reference, never a *Compiled already handed out.
var programs = memo.NewStore(programCap)

// CompileStats returns the compile cache's counters: hits, misses,
// evictions and live entries. The cache is process-wide, so every caller
// in the process shares them.
func CompileStats() memo.KindStats { return programs.KindStats(memo.KindProgram) }

// program is one cache entry's value.
type program struct {
	comp *Compiled
	err  error
}

// abandonedCompile is what callers coalesced onto a compile that
// panicked are served; the entry itself is dropped, so the next call for
// the source compiles afresh.
var abandonedCompile = &program{err: errors.New("minic: compile abandoned")}

// intern returns build(src) through s: the first caller for a source
// leads and builds it, and every concurrent or later caller is served the
// leader's *Compiled and error. A leader that panics publishes
// abandonedCompile without keeping it, so no follower stays blocked on
// the pending entry and the key stays usable.
func intern(s *memo.Store, src string, build func(string) (*Compiled, error)) (*Compiled, error) {
	e, leader := s.StartOrJoin(memo.SourceDigest(src), memo.KindProgram)
	if !leader {
		<-e.Ready()
		p := e.Value().(*program)
		return p.comp, p.err
	}
	defer s.Finish(e, abandonedCompile, nil, false)
	comp, err := build(src)
	s.Finish(e, &program{comp, err}, nil, true)
	return comp, err
}

// compileSource is the uncached compile pipeline: Parse, Compile, then
// Lower, whose result is cached on the Compiled. A lowering refusal is a
// compile error like any other.
func compileSource(src string) (*Compiled, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	comp, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	if _, err := comp.Lowered(); err != nil {
		return nil, err
	}
	return comp, nil
}
