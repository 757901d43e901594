package memo_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"infat/internal/exp"
	"infat/internal/memo"
	"infat/internal/server"
	"infat/internal/workloads"
)

// realSnapshot returns the bytes of a snapshot written by a real server
// store after it computed one entry of every kind: a /v1/run response, a
// perf cell and a memory (footprint) cell of a one-workload report plan,
// and a chaos cell — each published by the code that owns its kind.
func realSnapshot(tb testing.TB) []byte {
	tb.Helper()
	srv := server.New(server.Config{})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run",
		strings.NewReader(`{"source":"int main() { print(7); return 0; }"}`)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("/v1/run status %d: %s", rec.Code, rec.Body)
	}
	store := srv.MemoStore()
	w, ok := workloads.ByName("treeadd")
	if !ok {
		tb.Fatal("treeadd missing")
	}
	plan := exp.NewReportPlan([]workloads.Workload{w}, 1, 1).WithMemo(store)
	for _, i := range []int{0, plan.NumCells() - 1} {
		if _, err := plan.RunCell(i); err != nil {
			tb.Fatal(err)
		}
	}
	exp.NewChaosPlan(1).WithMemo(store).RunCell(0)
	for _, kind := range []byte{memo.KindRun, memo.KindCell, memo.KindChaos, memo.KindFootprint} {
		if store.KindStats(kind).Entries == 0 {
			tb.Fatalf("seed store holds no entry of kind %d", kind)
		}
	}
	dir := tb.TempDir()
	if err := store.SaveSnapshot(dir); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(memo.SnapshotPath(dir))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// reseal rewrites the check hash of every complete entry in a
// snapshot-shaped input (header, then kind, digest, length, payload,
// check per entry), so that mutated kinds, digests and payloads get past
// the integrity check and reach the codecs.
func reseal(data []byte) []byte {
	out := bytes.Clone(data)
	const header, fixed = 16, 1 + 32 + 4
	for off := header; off+fixed <= len(out); {
		plen := int(binary.LittleEndian.Uint32(out[off+33:]))
		end := off + fixed + plen
		if plen > len(out) || end+sha256.Size > len(out) {
			break
		}
		h := sha256.New()
		h.Write(out[off : off+33])
		h.Write(out[off+fixed : end])
		copy(out[end:], h.Sum(nil))
		off = end + sha256.Size
	}
	return out
}

// FuzzLoadSnapshot: arbitrary bytes as memo.snap never make LoadSnapshot
// panic or fail with anything but the two snapshot sentinels; every entry
// it loads decodes with its kind's codec to the value it stored; and a
// successfully loaded snapshot survives a save → load round trip with the
// same entries in the same order. With sealed set, the input's entry
// checks are recomputed first, so the fuzzer also reaches the codecs.
func FuzzLoadSnapshot(f *testing.F) {
	real := realSnapshot(f)
	f.Add(real, false)
	f.Add(real, true)
	f.Add(real[:len(real)/2], false)
	f.Add([]byte("IFPMEMO\n"), false)
	f.Add([]byte{}, false)
	// One directory pair per process: a fuzz worker runs its inputs one
	// at a time.
	in, out := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		if sealed {
			data = reseal(data)
		}
		if err := os.WriteFile(memo.SnapshotPath(in), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := memo.NewStore(0)
		err := s.LoadSnapshot(in)
		if err != nil && !errors.Is(err, memo.ErrSnapshotCorrupt) && !errors.Is(err, memo.ErrSnapshotVersion) {
			t.Fatalf("LoadSnapshot failed outside its sentinels: %v", err)
		}
		entries := s.Entries()
		for _, e := range entries {
			c, ok := memo.CodecFor(e.Kind)
			if !ok {
				t.Fatalf("loaded an entry of unregistered kind %d", e.Kind)
			}
			v, derr := c.Decode(e.Enc)
			if derr != nil {
				t.Fatalf("loaded kind-%d entry does not decode: %v", e.Kind, derr)
			}
			if !reflect.DeepEqual(v, e.Val) {
				t.Fatalf("kind-%d entry holds %#v, its payload decodes to %#v", e.Kind, e.Val, v)
			}
		}
		if err != nil {
			return
		}

		if err := s.SaveSnapshot(out); err != nil {
			t.Fatal(err)
		}
		s2 := memo.NewStore(0)
		if err := s2.LoadSnapshot(out); err != nil {
			t.Fatalf("reloading a saved snapshot: %v", err)
		}
		again := s2.Entries()
		if len(again) != len(entries) {
			t.Fatalf("round trip kept %d of %d entries", len(again), len(entries))
		}
		for i, e := range entries {
			a := again[i]
			if a.Kind != e.Kind || a.Digest != e.Digest || !bytes.Equal(a.Enc, e.Enc) || !reflect.DeepEqual(a.Val, e.Val) {
				t.Fatalf("round trip changed entry %d: kind %d digest %s became kind %d digest %s",
					i, e.Kind, e.Digest, a.Kind, a.Digest)
			}
		}
	})
}
