package exp

import (
	"errors"
	"fmt"

	"infat/internal/pool"
	"infat/internal/rt"
	"infat/internal/stats"
	"infat/internal/workloads"
)

// HybridReport runs every workload under the dynamic allocator-selection
// mode (§4.2.1's future-work exploration, implemented here) and compares
// it against the paper's two static choices. The hypothesis the paper
// sketches: hybrid should track subheap on pool-friendly programs and
// avoid subheap's losses where metadata fits the cache anyway.
func HybridReport(scale int) (string, error) { return HybridReportN(scale, 1) }

// HybridReportN is HybridReport with the (workload × mode) cells fanned
// over at most workers goroutines; rows render in workload order, so the
// report is byte-identical at any worker count.
func HybridReportN(scale, workers int) (string, error) {
	modes := []rt.Mode{rt.Baseline, rt.Subheap, rt.Wrapped, rt.Hybrid}
	cells := make([]ModeResult, len(workloads.All)*len(modes))
	if err := pool.Map(workers, len(cells), func(c int) error {
		m, err := runOne(workloads.All[c/len(modes)], modes[c%len(modes)], false, scale, false)
		if err != nil {
			return err
		}
		cells[c] = m
		return nil
	}); err != nil {
		return "", err
	}

	var t stats.Table
	t.Add("Benchmark", "Subheap", "Wrapped", "Hybrid", "Hybrid heap split (pool/wrapped)")
	var sr, wr, hr []float64
	var errs []error
	for wi, w := range workloads.All {
		base, sub, wrap, hyb := cells[wi*4], cells[wi*4+1], cells[wi*4+2], cells[wi*4+3]
		if hyb.Checksum != base.Checksum {
			errs = append(errs, fmt.Errorf("exp: %s: hybrid checksum %#x != baseline %#x",
				w.Name, hyb.Checksum, base.Checksum))
			continue
		}
		rs := stats.Ratio(sub.Counters.Cycles, base.Counters.Cycles)
		rw := stats.Ratio(wrap.Counters.Cycles, base.Counters.Cycles)
		rh := stats.Ratio(hyb.Counters.Cycles, base.Counters.Cycles)
		sr, wr, hr = append(sr, rs), append(wr, rw), append(hr, rh)
		t.Add(w.Name, pctCell(rs), pctCell(rw), pctCell(rh),
			fmt.Sprintf("%d pool / %d other of %d objects",
				hyb.Stats.HeapPool, hyb.Stats.HeapObjects-hyb.Stats.HeapPool,
				hyb.Stats.HeapObjects))
	}
	if err := errors.Join(errs...); err != nil {
		return "", err
	}
	return "Hybrid allocator (dynamic scheme selection, §4.2.1 future work)\n" +
			t.String() +
			fmt.Sprintf("geo-mean overhead: subheap %s, wrapped %s, hybrid %s\n",
				stats.GeomeanOverhead(sr), stats.GeomeanOverhead(wr),
				stats.GeomeanOverhead(hr)),
		nil
}
