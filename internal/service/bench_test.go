package service

import (
	"fmt"
	"testing"

	"impeccable/internal/campaign"
	"impeccable/internal/chem"
	"impeccable/internal/dock"
	"impeccable/internal/receptor"
)

// benchConfig is a small campaign for benchmarking repeated submissions.
func benchConfig(t *receptor.Target) campaign.Config {
	cfg := campaign.DefaultConfig(t)
	cfg.LibrarySize = 300
	cfg.TrainSize = 60
	cfg.CGCount = 3
	cfg.TopCompounds = 2
	cfg.OutliersPer = 2
	cfg.FastProtocols = true
	p := dock.DefaultParams()
	p.Runs = 1
	p.Generations = 8
	p.Population = 20
	cfg.DockParams = &p
	return cfg
}

// BenchmarkOverlappingCampaigns measures the tentpole speedup: the same
// campaign resubmitted against a shared score cache (the multi-tenant
// overlap case) versus cold every time. Compare:
//
//	go test ./internal/service -bench OverlappingCampaigns -benchtime 3x
func BenchmarkOverlappingCampaigns(b *testing.B) {
	t := receptor.PLPro()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := campaign.Run(benchConfig(t)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shared-cache", func(b *testing.B) {
		scores := NewScoreCache(64, 0)
		// Warm once outside the timer: the steady state of a long-lived
		// service is every iteration after the first.
		warm := benchConfig(t)
		warm.DockCache = scores.ForTarget(t.Name)
		if _, err := campaign.Run(warm); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := benchConfig(t)
			cfg.DockCache = scores.ForTarget(t.Name)
			res, err := campaign.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if res.Funnel.DockCacheHits == 0 {
				b.Fatal("warm campaign missed the cache entirely")
			}
		}
		b.ReportMetric(scores.Stats().HitRate, "hit-rate")
	})
}

// BenchmarkScoreCacheParallel measures raw sharded-cache throughput
// under contention from all CPUs.
func BenchmarkScoreCacheParallel(b *testing.B) {
	for _, shards := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			c := NewScoreCache(shards, 0)
			mols := make([]*chem.Molecule, 512)
			for i := range mols {
				mols[i] = chem.FromID(uint64(i))
			}
			view := c.ForTarget("T")
			for _, m := range mols {
				view.Put(m, dock.Result{MolID: m.ID})
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					m := mols[i%len(mols)]
					if i%8 == 0 {
						view.Put(m, dock.Result{MolID: m.ID})
					} else {
						view.Get(m)
					}
					i++
				}
			})
		})
	}
}
