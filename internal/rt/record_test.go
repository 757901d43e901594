package rt

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"infat/internal/layout"
	"infat/internal/machine"
)

// replayTypes are the types the synthetic program allocates: a scalar,
// a struct with an array member, and an array past the local-offset
// scheme's size cap.
var replayTypes = []*layout.Type{
	layout.Long,
	layout.StructOf("replay_node",
		layout.F("key", layout.Long),
		layout.F("kids", layout.ArrayOf(layout.PointerTo(nil), 3)),
		layout.F("tag", layout.Int)),
	layout.ArrayOf(layout.Long, 200),
}

// replayProgram runs the synthetic program data describes on r: each
// byte pair is an allocation-API call or a load or store inside a live
// object, chosen by the first byte and sized or placed by the second. It
// makes the same calls in every mode, so a mode's own run and a replay
// of its Baseline recording must agree.
func replayProgram(r *Runtime, data []byte) error {
	var heap, locals, globals, raws []Obj
	var marks []uint64
	pick := func(objs []Obj, arg int) (Obj, bool) {
		if len(objs) == 0 {
			return Obj{}, false
		}
		return objs[arg%len(objs)], true
	}
	for pc := 0; pc+1 < len(data) && pc < 400; pc += 2 {
		arg := int(data[pc+1])
		t := replayTypes[arg%len(replayTypes)]
		var o Obj
		var err error
		switch data[pc] % 16 {
		case 0:
			o, err = r.Malloc(t, uint64(1+arg/3%4))
			heap = append(heap, o)
		case 1:
			n := uint64(1 + arg*37%5000)
			if arg >= 250 {
				n = 64 << 10 * uint64(arg-249) // a large array
			}
			o, err = r.MallocBytes(n)
			heap = append(heap, o)
		case 2:
			o, err = r.MallocLegacy(uint64(1 + arg*13%300))
			heap = append(heap, o)
		case 3:
			if len(heap) > 0 {
				i := arg % len(heap)
				err = r.Free(heap[i])
				heap = append(heap[:i], heap[i+1:]...)
			}
		case 4:
			o, err = r.AllocLocal(t)
			locals = append(locals, o)
		case 5:
			o, err = r.AllocLocalBytes(uint64(1 + arg*7%600))
			locals = append(locals, o)
		case 6:
			if n := len(locals); n > 0 {
				err = r.DeallocLocal(locals[n-1])
				locals = locals[:n-1]
			}
		case 7:
			marks = append(marks, r.StackMark())
		case 8:
			if len(marks) > 0 {
				m := marks[arg%len(marks)]
				marks = marks[:arg%len(marks)+1]
				err = r.StackRelease(m)
				released := func(o Obj) bool { return o.Base() >= m }
				locals, raws = slices.DeleteFunc(locals, released), slices.DeleteFunc(raws, released)
			}
		case 9:
			n := uint64(8 * (2 + arg%3))
			var p uint64
			p, err = r.StackRaw(n)
			raws = append(raws, Obj{P: p, Size: n})
		case 10:
			if arg%2 == 0 {
				o, err = r.RegisterGlobal(t)
			} else {
				o, err = r.RegisterGlobalBytes(uint64(1 + arg*11%3000))
			}
			globals = append(globals, o)
		case 11:
			if s, ok := pick(raws, arg); ok {
				b := machine.Cleared
				if h, ok := pick(heap, arg); ok {
					b = h.B
				}
				err = r.SpillBounds(s.P, b)
			}
		case 12:
			if s, ok := pick(raws, arg); ok {
				_, err = r.ReloadBounds(s.P)
			}
		default:
			all := append(append(append(append([]Obj(nil), heap...), locals...), globals...), raws...)
			o, ok := pick(all, arg/3)
			if !ok {
				break
			}
			size := 8
			for uint64(size) > o.Size {
				size /= 2
			}
			var off uint64
			switch arg % 3 {
			case 1:
				off = o.Size - uint64(size)
			case 2:
				off = uint64(arg*97) % (o.Size - uint64(size) + 1)
			}
			off &^= uint64(size - 1)
			p := r.GEP(o.P, int64(off), o.B)
			if data[pc]%2 == 0 {
				err = r.Store(p, uint64(arg), size, o.B)
			} else {
				_, err = r.Load(p, size, o.B)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// replayModes are the modes FuzzFootprintReplay checks a replay in.
var replayModes = []Mode{Subheap, Wrapped, Hybrid, IFPTemporal}

// checkReplay records data's program in Baseline and requires each
// replay mode's replay of the recording to give the footprint and Stats
// of the mode's own footprint-only run, or to fail where that run fails.
func checkReplay(t *testing.T, data []byte) {
	t.Helper()
	r := Acquire(Baseline)
	rec, err := r.Record(func() error { return replayProgram(r, data) })
	Release(r)
	if err != nil {
		if errors.Is(err, errRecord) {
			t.Fatalf("recording a memory-safe program failed: %v", err)
		}
		return // the program itself fails in Baseline
	}
	for _, mode := range replayModes {
		own := Acquire(mode)
		own.FootprintOnly()
		ownErr := replayProgram(own, data)
		rep := Acquire(mode)
		repErr := rep.Replay(rec)
		if (ownErr == nil) != (repErr == nil) {
			t.Fatalf("%v: own run error %v, replay error %v", mode, ownErr, repErr)
		}
		if ownErr == nil && (own.Footprint() != rep.Footprint() || own.Stats != rep.Stats) {
			t.Fatalf("%v: replay differs from the mode's own run\nreplay: footprint %d stats %+v\nown:    footprint %d stats %+v",
				mode, rep.Footprint(), rep.Stats, own.Footprint(), own.Stats)
		}
		Release(own)
		Release(rep)
	}
}

// replaySeeds are the cases FuzzFootprintReplay starts from, each a
// program as byte pairs (operation, argument).
var replaySeeds = map[string][]byte{
	// A bounds spill and reload: writes in every instrumented mode, and
	// no-ops in the Baseline run that is recorded.
	"spill slot": {7, 0, 9, 0, 11, 0, 12, 0, 8, 0},
	// A chunk stored to, freed, and reused by an allocation of its size.
	"chunk freed and reused": {1, 3, 13, 2, 3, 0, 1, 3, 14, 1},
	// A 64 KiB array touched only at its two ends: one hull per object
	// would map the 14 pages between.
	"array touched at both ends": {1, 250, 13, 0, 13, 1},
	// Locals registered under a stack mark and released with it, not
	// deallocated, then the stack reused.
	"mark released across locals": {7, 0, 4, 1, 5, 40, 13, 2, 8, 0, 4, 2, 13, 5},
	// One stack frame four times over: the recording keeps two frames
	// and folds the last two into a repeat count.
	"repeated frames": {
		7, 0, 4, 1, 13, 2, 6, 0, 8, 0,
		7, 0, 4, 1, 13, 2, 6, 0, 8, 0,
		7, 0, 4, 1, 13, 2, 6, 0, 8, 0,
		7, 0, 4, 1, 13, 2, 6, 0, 8, 0,
	},
}

// FuzzFootprintReplay: for any synthetic program of allocation calls and
// in-bounds loads and stores, replaying its recorded Baseline run in
// subheap, wrapped, hybrid and ifp-temporal gives each mode's own
// footprint-only footprint and Stats.
func FuzzFootprintReplay(f *testing.F) {
	for _, seed := range replaySeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkReplay(t, data) })
}

// TestFootprintReplaySeeds runs each seed by name, and checks that the
// large-array seed's replay maps its two end pages, not the array's.
func TestFootprintReplaySeeds(t *testing.T) {
	for name, seed := range replaySeeds {
		t.Run(name, func(t *testing.T) { checkReplay(t, seed) })
	}
	r := Acquire(Baseline)
	defer Release(r)
	data := replaySeeds["array touched at both ends"]
	if _, err := r.Record(func() error { return replayProgram(r, data) }); err != nil {
		t.Fatal(err)
	}
	if pages := r.Footprint() / 4096; pages > 4 {
		t.Fatalf("the both-ends program maps %d pages in Baseline, want at most 4", pages)
	}
	r.Reset(Baseline)
	data = replaySeeds["repeated frames"]
	rec, err := r.Record(func() error { return replayProgram(r, data) })
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(rec.ev, []byte{evRepeat, 2}); n != 1 {
		t.Fatalf("the repeated-frames program recorded %d repeats of 2 frames, want 1: % x", n, rec.ev)
	}
}

// TestRecordRejectsStrayAccess: an access that no live allocation covers
// fails the recording instead of being attributed to a guess.
func TestRecordRejectsStrayAccess(t *testing.T) {
	r := Acquire(Baseline)
	defer Release(r)
	_, err := r.Record(func() error {
		o, err := r.MallocBytes(64)
		if err != nil {
			return err
		}
		if err := r.Free(o); err != nil {
			return err
		}
		return r.Store(o.P, 1, 8, machine.Cleared) // use after free
	})
	if !errors.Is(err, errRecord) {
		t.Fatalf("recording a use after free: err = %v, want a recording error", err)
	}
}
