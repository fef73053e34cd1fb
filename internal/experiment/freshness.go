package experiment

import (
	"fmt"
	"io"

	"cascade/internal/coherency"
	"cascade/internal/scheme"
	"cascade/internal/sim"
)

// freshnessFrontier quantifies the paper's §2 freshness assumption
// ("objects stored in the caches are up-to-date") and maps the frontier of
// consistency mechanisms the engine-native substrate offers: it replays the
// workload through the coordinated scheme under object-update processes of
// varying intensity and reports, per mode, the average latency, the fraction
// of requests served a stale copy and the fraction forced to refetch.
//
//   - None: the paper's assumption — nothing is validated; staleness is the
//     price, measured omnisciently against the live authority.
//   - TTL: copies older than a lifetime are demoted and refetched. The stale
//     window shrinks to the lifetime; refetches buy it.
//   - PSI: origin responses piggyback the invalidation-log tail, so floors
//     rise on every origin contact and copies invalidated since are dropped
//     (Krishnamurthy & Wills' piggyback server invalidation, the mechanism
//     the paper cites).
//   - CAS: strict never-serve-stale — every request carries the origin's
//     current generation as a read floor, so a stale copy self-heals to a
//     miss. Staleness is zero by construction; the column pins it.
//
// Each row is one mean interval between updates of an object: a week, a
// day and two hours.
func freshnessFrontier(arch Arch, cfg Config, _ io.Writer) (Table, error) {
	cfg.setDefaults()
	w := cfg.workload()
	net := cfg.Network(arch)
	t := Table{
		Title: fmt.Sprintf("Freshness frontier (%s, cache size %.2f%%): coordinated caching under object updates",
			arch, studySize*100),
		XLabel: "update interval",
		YLabel: "latency (s) / fraction of requests",
		Columns: []string{
			"None lat", "None stale",
			"TTL lat", "TTL stale", "TTL refetch",
			"PSI lat", "PSI stale",
			"CAS lat", "CAS stale", "CAS refetch",
		},
	}
	modes := []coherency.Mode{coherency.ModeNone, coherency.ModeTTL, coherency.ModePSI, coherency.ModeCAS}
	for _, interval := range []float64{7 * 86400, 86400, 7200} {
		row := Row{Label: fmt.Sprintf("%gh", interval/3600)}
		for _, mode := range modes {
			simr, err := sim.New(sim.Config{
				Scheme:            scheme.NewCoordinated(),
				Network:           net,
				Catalog:           w.Catalog(),
				RelativeCacheSize: studySize,
				DCacheFactor:      cfg.DCacheFactor,
				Seed:              cfg.AttachSeed + 7,
				Coherency: &coherency.Config{
					Mode:                 mode,
					ObjectUpdateInterval: interval,
					// A sensible TTL tracks the expected update rate:
					// a quarter of the mean update interval bounds the
					// stale window while keeping revalidations rare.
					Lifetime: interval / 4,
					Seed:     cfg.AttachSeed,
				},
			})
			if err != nil {
				return Table{}, err
			}
			src, err := w.Open()
			if err != nil {
				return Table{}, err
			}
			s, _ := simr.Run(src, w.Len()/2)
			switch mode {
			case coherency.ModeNone:
				row.Values = append(row.Values, s.AvgLatency, s.StaleHitRatio)
			case coherency.ModeTTL:
				row.Values = append(row.Values, s.AvgLatency, s.StaleHitRatio, s.RefetchRatio)
			case coherency.ModePSI:
				row.Values = append(row.Values, s.AvgLatency, s.StaleHitRatio)
			case coherency.ModeCAS:
				row.Values = append(row.Values, s.AvgLatency, s.StaleHitRatio, s.RefetchRatio)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
