package main

// A minimal reader for the gzipped protobuf profiles runtime/pprof
// writes: just enough of profile.proto (samples, locations, functions,
// string table) to attribute each CPU sample to the package of its leaf
// frame. Field numbers follow github.com/google/pprof/proto/profile.proto.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// pbField is one decoded protobuf field: its number, wire type, and
// either a varint value or a length-delimited payload.
type pbField struct {
	num  int
	wire int
	v    uint64
	data []byte
}

var errTruncated = errors.New("pprof: truncated protobuf")

// unknownFunc names a leaf whose location or function is missing from
// the profile; it is folded into "other".
const unknownFunc = "?"

func readVarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields splits one protobuf message into its fields.
func fields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.v, n, err = readVarint(b); err != nil {
				return nil, err
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if f.wire == 5 {
				size = 4
			}
			if len(b) < size {
				return nil, errTruncated
			}
			b = b[size:]
		case 2:
			size, n, err := readVarint(b)
			if err != nil {
				return nil, err
			}
			b = b[n:]
			if uint64(len(b)) < size {
				return nil, errTruncated
			}
			f.data, b = b[:size], b[size:]
		default:
			return nil, fmt.Errorf("pprof: unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// leafSamples decodes a gzipped CPU profile and returns the sample count
// per leaf function name (the innermost frame, inlining included).
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	type sample struct {
		loc   uint64
		count int64
	}
	var samples []sample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var s sample
			seenLoc, seenVal := false, false
			for _, g := range sub {
				if g.num != 1 && g.num != 2 {
					continue
				}
				vs, err := g.varints()
				if err != nil {
					return nil, err
				}
				switch {
				case g.num == 1 && !seenLoc && len(vs) > 0:
					s.loc, seenLoc = vs[0], true // the first location is the leaf
				case g.num == 2 && !seenVal && len(vs) > 0:
					s.count, seenVal = int64(vs[0]), true // the first value is the sample count
				}
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id, fn uint64
			seenLine := false
			for _, g := range sub {
				switch {
				case g.num == 1 && g.wire == 0:
					id = g.v
				case g.num == 4 && g.wire == 2 && !seenLine:
					line, err := fields(g.data)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 && l.wire == 0 {
							fn = l.v
						}
					}
					seenLine = true // the first line is the innermost frame
				}
			}
			leafFunc[id] = fn
		case 5: // Function: id = 1, name = 2
			sub, err := fields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch {
				case g.num == 1 && g.wire == 0:
					id = g.v
				case g.num == 2 && g.wire == 0:
					name = g.v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.data))
		}
	}
	out := make(map[string]int64)
	for _, s := range samples {
		name := unknownFunc
		if fn, ok := leafFunc[s.loc]; ok {
			if si, ok := funcName[fn]; ok && si < uint64(len(strs)) {
				name = strs[si]
			}
		}
		out[name] += s.count
	}
	return out, nil
}

// selfBuckets are the packages self time is folded into; every other
// package lands in "other". Keys are metric-name prefixes.
var selfBuckets = []struct{ pkg, key string }{
	{"infat/internal/cache", "cache"},
	{"infat/internal/mem", "mem"},
	{"infat/internal/machine", "machine"},
	{"infat/internal/metadata", "metadata"},
	{"infat/internal/heap", "heap"},
	{"infat/internal/mac", "mac"},
	{"infat/internal/tag", "tag"},
	{"infat/internal/layout", "layout"},
	{"infat/internal/rt", "rt"},
	{"infat/internal/workloads", "workloads"},
	{"infat/internal/exp", "exp"},
	{"infat/internal/minic", "minic"},
	{"infat/internal/memo", "memo"},
	{"infat/internal/server", "server"},
	{"infat/internal/shard", "shard"},
	{"net/http", "net_http"},
	{"encoding/json", "encoding_json"},
	{"runtime", "runtime"},
	{"", "other"},
}

// funcPackage extracts the import path from a symbol name such as
// "infat/internal/cache.(*Cache).Access" or "net/http.(*conn).serve".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain dots and slashes
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	if slash < 0 && name != unknownFunc {
		// Assembly routines of the runtime and internal/bytealg, such as
		// aeshashbody and memeqbody, carry no package prefix.
		return "runtime"
	}
	return name
}

// bucketOf maps an import path to its self-time bucket.
func bucketOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "net/http"):
		return "net_http"
	}
	for _, b := range selfBuckets {
		if b.pkg != "" && pkg == b.pkg {
			return b.key
		}
	}
	return "other"
}

// selfPct folds leaf samples into each bucket's share of all samples, in
// percent. Every bucket is present; the shares sum to 100 when there is
// at least one sample.
func selfPct(leaves map[string]int64) (map[string]float64, int64) {
	out := make(map[string]float64, len(selfBuckets))
	for _, b := range selfBuckets {
		out[b.key] = 0
	}
	var total int64
	for name, n := range leaves {
		out[bucketOf(funcPackage(name))] += float64(n)
		total += n
	}
	if total > 0 {
		for k := range out {
			out[k] = 100 * out[k] / float64(total)
		}
	}
	return out, total
}
