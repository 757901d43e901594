package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"text/template"
	"time"
)

// The host this benchmark runs on is shared: neighbours slow branchy,
// cache-hungry code like the simulator by up to 2x for minutes at a
// time, far beyond any regression bound, while leaving arithmetic loops
// and memory-latency loops almost untouched. Every workload therefore
// alternates slices of work with a host-speed probe, and end-to-end times
// are scaled to a reference host speed: a slice's times are multiplied
// by probeRefMs over the mean of the probes before and after it.
//
// One probe run is a frozen miniature of the simulator's hot path, a
// switch-dispatched register interpreter over a map-paged memory with a
// 16-entry software TLB and a 32 KiB 8-way cache model, followed by a
// standard-library mix that resembles the serving path (reflective JSON,
// regexp, text/template, go/parser). Both live here, so no change to the
// repository's code moves them. A probe point runs the probe on every
// CPU at once, after a forced GC with no load in flight, so it sees the
// interference each CPU sees and the workload's heap does not move it.
// In five-minute trials under heavy interference, the miniature tracked
// the report workload's cells with an elasticity of 0.98 and the mix
// tracked the serving workloads best; neither alone tracked both.

// probeRefMs is the probe's time on the quiet 2-vCPU Xeon host the
// benchmark was built on; scaled times read as if measured at that speed.
const probeRefMs = 6.5

// probeReps is how many probe runs each CPU's share of a probe point
// takes the median of; the median drops the runs a transient spike hits.
const probeReps = 3

const (
	probePageBits = 12
	probeSpan     = 4 << 20 // bytes of guest memory the probe touches
	probeSteps    = 400_000
)

type probePage = [1 << probePageBits]byte

// probeFrames back each CPU's probe guest pages, allocated once so
// probing adds nothing to the workload's heap.
var probeFrames = func() [][]probePage {
	out := make([][]probePage, runtime.NumCPU())
	for i := range out {
		out[i] = make([]probePage, probeSpan>>probePageBits)
	}
	return out
}()

type probeInsn struct {
	op, a, b uint8
	imm      uint64
}

// probeProgram is the fixed instruction stream the interpreter cycles.
var probeProgram = func() []probeInsn {
	p := make([]probeInsn, 64)
	x := uint64(99)
	for i := range p {
		x = x*6364136223846793005 + 1442695040888963407
		p[i] = probeInsn{op: uint8(x>>60) % 6, a: uint8(x>>50) % 8, b: uint8(x>>40) % 8, imm: x >> 20}
	}
	return p
}()

type probeTLBEntry struct {
	pn uint64
	pg *probePage
}

// probeMachine is the miniature: paged memory, TLB, cache model.
type probeMachine struct {
	pages  map[uint64]*probePage
	frames []probePage
	next   int
	tlb    [16]probeTLBEntry
	tags   [256][8]uint64 // 256 sets x 8 ways x 16-byte lines
	lru    [256][8]uint32
	clock  uint32
	miss   uint64
}

func (m *probeMachine) page(a uint64) *probePage {
	pn := a >> probePageBits
	e := &m.tlb[pn&15]
	if e.pg != nil && e.pn == pn {
		return e.pg
	}
	pg := m.pages[pn]
	if pg == nil {
		pg = &m.frames[m.next%len(m.frames)]
		m.next++
		m.pages[pn] = pg
	}
	*e = probeTLBEntry{pn, pg}
	return pg
}

func (m *probeMachine) touch(a uint64) {
	line := a >> 4
	set, tag := line&255, line>>8+1
	m.clock++
	for w := range m.tags[set] {
		if m.tags[set][w] == tag {
			m.lru[set][w] = m.clock
			return
		}
	}
	m.miss++
	victim := 0
	for w := 1; w < 8; w++ {
		if m.lru[set][w] < m.lru[set][victim] {
			victim = w
		}
	}
	m.tags[set][victim], m.lru[set][victim] = tag, m.clock
}

func (m *probeMachine) load(a uint64) uint64 {
	m.touch(a)
	pg, o := m.page(a), a&(1<<probePageBits-8)
	return uint64(pg[o]) | uint64(pg[o+1])<<8 | uint64(pg[o+2])<<16 | uint64(pg[o+3])<<24
}

func (m *probeMachine) store(a, v uint64) {
	m.touch(a)
	pg, o := m.page(a), a&(1<<probePageBits-8)
	pg[o], pg[o+1], pg[o+2], pg[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

type probeRecord struct {
	Name  string
	Vals  []int
	Inner map[string]float64
}

var (
	probeData = func() []probeRecord {
		out := make([]probeRecord, 100)
		for i := range out {
			r := probeRecord{Name: "rec" + strconv.Itoa(i), Inner: map[string]float64{}}
			for j := 0; j < 10; j++ {
				r.Vals = append(r.Vals, i*j)
				r.Inner["k"+strconv.Itoa(j)] = float64(i) / float64(j+1)
			}
			out[i] = r
		}
		return out
	}()
	probeRE   = regexp.MustCompile(`(a|b)*c[0-9]+(x|y|z)+`)
	probeText = strings.Repeat("ababababc123xyz aaaabbbb c9 zz ", 500)
	probeTmpl = template.Must(template.New("t").Parse(
		"{{range .}}{{.Name}}:{{range .Vals}}{{.}},{{end}}{{if gt (len .Vals) 3}}big{{end}}\n{{end}}"))
	probeGo = func() string {
		var b strings.Builder
		b.WriteString("package p\n")
		for i := 0; i < 50; i++ {
			fmt.Fprintf(&b, "func f%d(a, b int) int {\n\tx := a*%d + b\n\tfor i := 0; i < x; i++ {\n"+
				"\t\tif i%%3 == 0 { x -= i } else { x += b }\n\t}\n\treturn x\n}\n", i, i)
		}
		return b.String()
	}()
)

// probeOnce runs the miniature for a fixed number of steps, then the
// standard-library mix, and returns the time taken.
func probeOnce(frames []probePage) time.Duration {
	start := time.Now()
	m := &probeMachine{pages: make(map[uint64]*probePage), frames: frames}
	var r [8]uint64
	for i := range r {
		r[i] = uint64(i) * 4096 * 37
	}
	const mask = probeSpan - 1
	for step := 0; step < probeSteps; step++ {
		in := probeProgram[step&63]
		switch in.op {
		case 0:
			r[in.a] += r[in.b] ^ in.imm
		case 1:
			r[in.a] = m.load((r[in.b] + in.imm) & mask)
		case 2:
			m.store((r[in.a]+in.imm)&mask, r[in.b])
		case 3:
			r[in.a] = r[in.a]*31 + in.imm
		case 4:
			if r[in.a]&1 == 0 {
				r[in.b] ^= r[in.a] >> 3
			}
		case 5:
			r[in.a] = m.load((r[in.a]<<4 + uint64(step)) & mask)
		}
	}
	sink := r[0] + m.miss
	b, err := json.Marshal(probeData)
	if err != nil {
		panic(err) // plain data: a marshal failure is a bug
	}
	var back []probeRecord
	if err := json.Unmarshal(b, &back); err != nil {
		panic(err)
	}
	var out bytes.Buffer
	if err := probeTmpl.Execute(&out, probeData); err != nil {
		panic(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", probeGo, 0)
	if err != nil {
		panic(err)
	}
	ast.Inspect(f, func(ast.Node) bool { sink++; return true })
	sink += uint64(len(back) + out.Len() + len(probeRE.FindAllStringIndex(probeText, -1)))
	if sink == 0 {
		panic("probe computed nothing") // keeps the work observable
	}
	return time.Since(start)
}

// probeHost measures the host's current speed, in ms: after a forced
// GC, one goroutine per CPU takes the median of probeReps probe runs, and
// the result is the mean over CPUs.
func probeHost() float64 {
	runtime.GC()
	per := make([]float64, len(probeFrames))
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts := make([]float64, probeReps)
			for k := range ts {
				ts[k] = float64(probeOnce(probeFrames[i])) / 1e6
			}
			per[i] = median(ts)
		}(i)
	}
	wg.Wait()
	return sum(per) / float64(len(per))
}
