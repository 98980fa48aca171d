package analysis

// This file pins the project's declared invariants: which packages
// are science (deterministic by contract), how the service mutexes
// nest, where the write-ahead journal sits, and which registry the
// exposition uses. cmd/impeccable-vet runs exactly this suite; the
// configurations are data, so DESIGN.md §5 and this file must move
// together.

// SciencePackages are the packages whose outputs feed the paper's
// tables and figures: everything they compute must be a pure function
// of (seed, libOffset), which is what the determinism and maporder
// analyzers enforce.
var SciencePackages = []string{
	"impeccable/internal/campaign",
	"impeccable/internal/dock",
	"impeccable/internal/nn",
	"impeccable/internal/md",
	"impeccable/internal/chem",
	"impeccable/internal/esmacs",
	"impeccable/internal/ties",
	"impeccable/internal/latent",
	"impeccable/internal/pilot",
}

// ServiceLockOrder is the declared mutex nesting of the campaign
// service, outermost first: the scheduler's table lock, then a single
// job's lock, then the event bus's lock (which nests innermost so
// publishing is safe from inside any transition). The tenant rate
// limiter's lock is a leaf — admission control runs before the
// scheduler is consulted and never holds another service lock.
var ServiceLockOrder = []MutexRef{
	{Type: "impeccable/internal/service.scheduler", Field: "mu"},
	{Type: "impeccable/internal/service.job", Field: "mu"},
	{Type: "impeccable/internal/service.eventBus", Field: "mu"},
	{Type: "impeccable/internal/service.tenantLimiter", Field: "mu"},
}

// DefaultAnalyzers returns the project-configured suite, one analyzer
// per enforced invariant.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		&Determinism{Packages: SciencePackages},
		&LockOrder{Order: ServiceLockOrder},
		&JournalBefore{
			Packages:       []string{"impeccable/internal/service"},
			StateType:      "impeccable/internal/service.job",
			StateField:     "state",
			StateValueType: "impeccable/internal/service.JobState",
			Terminal:       []string{"StateDone", "StateFailed", "StateCanceled"},
			JournalCalls:   []string{"record", "append"},
		},
		&MetricsDecl{RegistryType: "impeccable/internal/obs.Registry"},
		&MapOrder{Packages: SciencePackages},
	}
}

// AnalyzerByName returns the default-suite analyzer with the given
// name, or nil.
func AnalyzerByName(name string) Analyzer {
	for _, a := range DefaultAnalyzers() {
		if a.Name() == name {
			return a
		}
	}
	return nil
}
