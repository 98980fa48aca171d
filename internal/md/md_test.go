package md

import (
	"math"
	"testing"

	"impeccable/internal/chem"
	"impeccable/internal/geom"
	"impeccable/internal/receptor"
	"impeccable/internal/xrand"
)

func newTestSystem(molID uint64) *System {
	return NewSystem(receptor.PLPro(), chem.FromID(molID), nil)
}

func TestSystemLayout(t *testing.T) {
	s := newTestSystem(1)
	if s.NProt != receptor.BackboneLen {
		t.Fatalf("NProt = %d", s.NProt)
	}
	if s.NLig != len(s.Conf.Beads) {
		t.Fatalf("NLig = %d", s.NLig)
	}
	if s.N() != len(s.Pos) || s.N() != len(s.Vel) || s.N() != len(s.Mass) {
		t.Fatal("slice lengths inconsistent")
	}
}

func TestForcesMatchEnergyGradient(t *testing.T) {
	// F = -∇E, verified by central differences on a random subset of
	// coordinates. This is the master correctness check for the force
	// field.
	s := newTestSystem(3)
	// Perturb ligand into a generic (non-symmetric) configuration.
	r := xrand.New(1)
	for i := range s.Pos {
		s.Pos[i] = s.Pos[i].Add(geom.Vec3{
			X: r.Norm(0, 0.05), Y: r.Norm(0, 0.05), Z: r.Norm(0, 0.05)})
	}
	f, _ := s.Forces()
	fcopy := append([]geom.Vec3(nil), f...)
	const h = 1e-6
	checks := []int{0, 5, s.NProt - 1, s.NProt, s.NProt + 1, s.N() - 1}
	for _, i := range checks {
		for axis := 0; axis < 3; axis++ {
			orig := s.Pos[i]
			bump := geom.Vec3{}
			switch axis {
			case 0:
				bump.X = h
			case 1:
				bump.Y = h
			case 2:
				bump.Z = h
			}
			s.Pos[i] = orig.Add(bump)
			_, ep := s.Forces()
			s.Pos[i] = orig.Sub(bump)
			_, em := s.Forces()
			s.Pos[i] = orig
			fd := -(ep.Potential - em.Potential) / (2 * h)
			var got float64
			switch axis {
			case 0:
				got = fcopy[i].X
			case 1:
				got = fcopy[i].Y
			case 2:
				got = fcopy[i].Z
			}
			if math.Abs(fd-got) > 1e-3*(1+math.Abs(fd)) {
				t.Fatalf("bead %d axis %d: force %v, -dE/dx %v", i, axis, got, fd)
			}
		}
	}
}

func TestEnergyConservationZeroFriction(t *testing.T) {
	// With Gamma=0 BAOAB is velocity Verlet; total energy drift over a
	// short run must be small relative to the energy scale.
	s := newTestSystem(5)
	in := Integrator{Dt: 0.002, Gamma: 0, KT: 0}
	r := xrand.New(2)
	// Small random velocities.
	for i := range s.Vel {
		s.Vel[i] = geom.Vec3{X: r.Norm(0, 0.1), Y: r.Norm(0, 0.1), Z: r.Norm(0, 0.1)}
	}
	_, e0 := s.Forces()
	total0 := e0.Potential + s.KineticEnergy()
	for step := 0; step < 2000; step++ {
		in.Step(s, r)
	}
	_, e1 := s.Forces()
	total1 := e1.Potential + s.KineticEnergy()
	drift := math.Abs(total1 - total0)
	if drift > 0.02*(math.Abs(total0)+1) {
		t.Fatalf("energy drift %v (from %v to %v)", drift, total0, total1)
	}
}

func TestThermostatEquipartition(t *testing.T) {
	// Long Langevin run must equilibrate kinetic energy to (3/2) N kT.
	s := newTestSystem(7)
	in := Integrator{Dt: 0.01, Gamma: 2, KT: 0.6}
	r := xrand.New(3)
	in.InitVelocities(s, r)
	// Equilibrate then average.
	for i := 0; i < 500; i++ {
		in.Step(s, r)
	}
	var keSum float64
	const samples = 500
	for i := 0; i < samples; i++ {
		in.Step(s, r)
		keSum += s.KineticEnergy()
	}
	meanKE := keSum / samples
	wantKE := 1.5 * float64(s.N()) * in.KT
	if math.Abs(meanKE-wantKE) > 0.15*wantKE {
		t.Fatalf("mean KE = %v, equipartition predicts %v", meanKE, wantKE)
	}
}

func TestMinimizeReducesEnergy(t *testing.T) {
	s := newTestSystem(9)
	r := xrand.New(4)
	for i := s.NProt; i < s.N(); i++ {
		s.Pos[i] = s.Pos[i].Add(geom.Vec3{X: r.Norm(0, 0.5), Y: r.Norm(0, 0.5), Z: r.Norm(0, 0.5)})
	}
	_, e0 := s.Forces()
	final := Minimize(s, 200, 1e-3)
	if final >= e0.Potential {
		t.Fatalf("minimization failed: %v -> %v", e0.Potential, final)
	}
}

func TestLigandStaysNearPocket(t *testing.T) {
	// A thermostatted run must not eject the ligand from the pocket
	// region (the clash+box landscape should confine it).
	s := newTestSystem(11)
	in := DefaultIntegrator()
	r := xrand.New(5)
	in.InitVelocities(s, r)
	Run(s, in, RunConfig{Steps: 2000}, r)
	if d := s.PocketDepth(); d > s.Target.SurfaceRadius() {
		t.Fatalf("ligand drifted %v Å from pocket", d)
	}
}

func TestRunRecordsFrames(t *testing.T) {
	s := newTestSystem(13)
	in := DefaultIntegrator()
	r := xrand.New(6)
	tr := Run(s, in, RunConfig{Steps: 100, SampleEach: 10, Record: true}, r)
	if len(tr.Frames) != 10 {
		t.Fatalf("frames = %d, want 10", len(tr.Frames))
	}
	for _, fr := range tr.Frames {
		if len(fr.Protein) != s.NProt || len(fr.Ligand) != s.NLig {
			t.Fatal("frame coordinate counts wrong")
		}
		if fr.LigandRMSD < 0 || math.IsNaN(fr.LigandRMSD) {
			t.Fatalf("bad RMSD %v", fr.LigandRMSD)
		}
	}
	if tr.MeanRMSD() <= 0 {
		t.Fatalf("MeanRMSD = %v, expected thermal motion", tr.MeanRMSD())
	}
	if tr.MaxRMSD() < tr.MeanRMSD() {
		t.Fatal("MaxRMSD < MeanRMSD")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() float64 {
		s := newTestSystem(15)
		in := DefaultIntegrator()
		r := xrand.New(7)
		in.InitVelocities(s, r)
		tr := Run(s, in, RunConfig{Steps: 50, SampleEach: 50, Record: true}, r)
		return tr.Frames[0].E.Potential
	}
	if mk() != mk() {
		t.Fatal("MD not deterministic under fixed seed")
	}
}

// TestRunMatchesStepBitForBit pins the force reuse in Run: carrying each
// step's closing forces into the next step must land on exactly the
// positions, velocities and energies of calling Step once per step,
// which evaluates the forces twice.
func TestRunMatchesStepBitForBit(t *testing.T) {
	const steps = 40
	in := DefaultIntegrator()
	a, b := newTestSystem(19), newTestSystem(19)
	ra, rb := xrand.New(8), xrand.New(8)
	in.InitVelocities(a, ra)
	in.InitVelocities(b, rb)
	tr := Run(a, in, RunConfig{Steps: steps, SampleEach: 1, Record: true}, ra)
	for i := 0; i < steps; i++ {
		if e := in.Step(b, rb); e != tr.Frames[i].E {
			t.Fatalf("step %d: Step energies %+v, Run %+v", i+1, e, tr.Frames[i].E)
		}
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
			t.Fatalf("bead %d: Run and Step diverge", i)
		}
	}
}

func TestContactCountBehaviour(t *testing.T) {
	s := newTestSystem(17)
	in := s.ContactCount(ContactCutoff)
	// Move ligand far into solvent: contacts drop to zero.
	for i := s.NProt; i < s.N(); i++ {
		s.Pos[i] = s.Pos[i].Add(geom.Vec3{X: 50})
	}
	if out := s.ContactCount(ContactCutoff); out != 0 {
		t.Fatalf("solvent contacts = %d", out)
	}
	if in < 0 {
		t.Fatalf("pocket contacts = %d", in)
	}
}

func TestBetterBinderLowerInterEnergy(t *testing.T) {
	// Molecules with better ground-truth affinity should show lower
	// average interaction energy in equilibrium MD — the causal channel
	// behind CG-ESMACS ranking (Fig. 5A).
	tg := receptor.PLPro()
	r := xrand.New(8)
	type rec struct{ truth, inter float64 }
	var recs []rec
	for i := 0; i < 12; i++ {
		m := chem.FromID(r.Uint64())
		s := NewSystem(tg, m, nil)
		Minimize(s, 50, 1e-2)
		in := DefaultIntegrator()
		rr := xrand.NewFrom(100, uint64(i))
		in.InitVelocities(s, rr)
		Run(s, in, RunConfig{Steps: 300}, rr) // equilibrate
		tr := Run(s, in, RunConfig{Steps: 500, SampleEach: 25, Record: true}, rr)
		recs = append(recs, rec{tg.TrueAffinity(m), tr.MeanInterEnergy()})
	}
	var sx, sy, sxx, syy, sxy float64
	for _, x := range recs {
		sx += x.truth
		sy += x.inter
		sxx += x.truth * x.truth
		syy += x.inter * x.inter
		sxy += x.truth * x.inter
	}
	n := float64(len(recs))
	corr := (sxy/n - sx/n*sy/n) / math.Sqrt((sxx/n-sx/n*sx/n)*(syy/n-sy/n*sy/n))
	if corr < 0.2 {
		t.Fatalf("truth/inter-energy correlation = %v, want positive", corr)
	}
	t.Logf("truth vs mean inter-energy correlation = %.3f", corr)
}

func TestFlopsPerStepPositive(t *testing.T) {
	if newTestSystem(1).FlopsPerStep() <= 0 {
		t.Fatal("FlopsPerStep must be positive")
	}
}

func BenchmarkStep(b *testing.B) {
	s := newTestSystem(1)
	in := DefaultIntegrator()
	r := xrand.New(1)
	in.InitVelocities(s, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Step(s, r)
	}
}

func BenchmarkForces(b *testing.B) {
	s := newTestSystem(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Forces()
	}
}
