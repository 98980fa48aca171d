package campaign

import (
	"errors"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"impeccable/internal/dock"
	"impeccable/internal/receptor"
)

// tinyConfig is a campaign small enough that cancellation tests run in
// -short mode (and under -race in CI).
func tinyConfig() Config {
	cfg := DefaultConfig(receptor.PLPro())
	cfg.LibrarySize = 240
	cfg.TrainSize = 24
	cfg.CGCount = 2
	cfg.TopCompounds = 1
	cfg.OutliersPer = 1
	cfg.FastProtocols = true
	cfg.Workers = 2
	p := dock.DefaultParams()
	p.Runs = 1
	p.Generations = 6
	p.Population = 16
	cfg.DockParams = &p
	return cfg
}

// drivers are the two schedules of the funnel.
var drivers = []struct {
	name string
	run  func(Config) (*Result, error)
}{
	{"run", Run},
	{"entk", RunViaEnTK},
}

// requireNoLeakedGoroutines fails unless the goroutine count settles
// back to the pre-campaign baseline: no docking, screening or pilot
// goroutine may outlive a canceled campaign.
func requireNoLeakedGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	var buf strings.Builder
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
	t.Fatalf("goroutines leaked: %d live vs baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf.String())
}

// TestCancelAtStage closes a campaign's cancel channel the first time
// the progress observer reports a stage, and requires ErrCanceled with
// no leaked goroutine. Each driver is cut at every stage it reports.
func TestCancelAtStage(t *testing.T) {
	stages := map[string][]string{
		"run":  {"s1-train", "ml1-train", "ml1-screen", "s1-dock", "s3-cg"},
		"entk": {"s1-train", "ml1-train", "s1-dock", "s3-cg", "s2", "s3-fg"},
	}
	for _, d := range drivers {
		for _, stage := range stages[d.name] {
			t.Run(d.name+"/"+stage, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				cancel := make(chan struct{})
				var once sync.Once
				cfg := tinyConfig()
				cfg.Cancel = cancel
				cfg.Progress = func(s string, frac float64) {
					if s == stage {
						once.Do(func() { close(cancel) })
					}
				}
				res, err := d.run(cfg)
				if !errors.Is(err, ErrCanceled) {
					t.Fatalf("err = %v, res = %v", err, res)
				}
				requireNoLeakedGoroutines(t, baseline)
			})
		}
	}
}

// TestCancelAlreadyClosed covers the degenerate case: a cancel channel
// closed before the campaign starts.
func TestCancelAlreadyClosed(t *testing.T) {
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cancel := make(chan struct{})
			close(cancel)
			cfg := tinyConfig()
			cfg.Cancel = cancel
			if _, err := d.run(cfg); !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v", err)
			}
			requireNoLeakedGoroutines(t, baseline)
		})
	}
}
