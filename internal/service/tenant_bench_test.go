package service

import (
	"sort"
	"testing"
	"time"
)

// BenchmarkTenantQueueLatency measures what the DRR arbiter buys a
// light tenant: the number of job-slots its single submission waits
// behind a 50-job flood before being granted. "fifo" puts the flood
// and the light job in one tenant queue (a single queue is served
// strictly FIFO — the pre-tenancy behavior); "drr" gives the light
// tenant its own equal-weight queue. Latency is reported in job-slots
// (grants before the light job's) rather than wall seconds so the
// number is hardware-independent: multiply by the mean campaign
// duration for wall-clock latency. Compare:
//
//	go test ./internal/service -bench TenantQueueLatency -benchtime 200x
func BenchmarkTenantQueueLatency(b *testing.B) {
	const flood = 50
	run := func(b *testing.B, lightTenant string) {
		lat := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			s := remoteScheduler(time.Hour, nil)
			now := time.Now()
			for k := 0; k < flood; k++ {
				if _, err := s.submit(tenantReq("flood", 0), now, ""); err != nil {
					b.Fatal(err)
				}
			}
			lightID, err := s.submit(tenantReq(lightTenant, 0), now, "")
			if err != nil {
				b.Fatal(err)
			}
			slots := 0
			for {
				j, err := s.lease("w1", 0, now)
				if err != nil || j == nil {
					b.Fatalf("grant after %d slots = %v, %v", slots, j, err)
				}
				if j.id == lightID {
					break
				}
				slots++
				j.mu.Lock()
				tok := j.leaseToken
				j.mu.Unlock()
				if err := s.complete("w1", tok, j.id, StateDone, "", &ResultSummary{}, nil, now); err != nil {
					b.Fatal(err)
				}
			}
			lat = append(lat, float64(slots))
			s.shutdown()
		}
		sort.Float64s(lat)
		b.ReportMetric(lat[len(lat)*99/100], "p99-slots")
		b.ReportMetric(lat[len(lat)/2], "p50-slots")
	}
	b.Run("fifo", func(b *testing.B) { run(b, "flood") })
	b.Run("drr", func(b *testing.B) { run(b, "light") })
}
