package campaign

import "testing"

func TestRunViaEnTKEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	cfg := fastConfig()
	res, err := RunViaEnTK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Funnel
	if f.Screened != cfg.LibrarySize {
		t.Fatalf("screened = %d", f.Screened)
	}
	if f.CG != cfg.CGCount {
		t.Fatalf("CG = %d", f.CG)
	}
	if f.FG != cfg.TopCompounds*cfg.OutliersPer {
		t.Fatalf("FG = %d", f.FG)
	}
	if len(res.Top) == 0 {
		t.Fatal("no Fig. 6 comparisons")
	}
	// The pilot path must leave a utilization trace (the workflow engine
	// actually executed the tasks).
	if len(res.PilotTrace) == 0 {
		t.Fatal("no pilot utilization trace")
	}
}

func TestRunViaEnTKMatchesDirectFunnelShape(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive; run without -short")
	}
	// The EnTK path and the direct path must agree on the funnel shape
	// and, component by component, on the flop ledger: both drivers book
	// work through the same stage helpers.
	cfg := fastConfig()
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaEntk, err := RunViaEnTK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Funnel.Counts() != viaEntk.Funnel.Counts() {
		t.Fatalf("funnels diverge: %+v vs %+v", direct.Funnel, viaEntk.Funnel)
	}
	want, got := direct.Counter.Stats(), viaEntk.Counter.Stats()
	if len(got) != len(want) {
		t.Fatalf("components = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Component != want[i].Component || got[i].Flops != want[i].Flops ||
			got[i].Units != want[i].Units || got[i].Flops == 0 {
			t.Fatalf("component %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRunViaEnTKErrors(t *testing.T) {
	if _, err := RunViaEnTK(Config{}); err == nil {
		t.Fatal("nil target accepted")
	}
}
