package hybridpart

import (
	"fmt"
	"sync"

	"hybridpart/internal/explore"
	"hybridpart/internal/platform"
)

// SweepSpec declares a design-space sweep: benchmarks × platform presets ×
// A_FPGA values × CGC counts × timing constraints. Empty axes mean
// "default" (see the field docs on the underlying type).
type SweepSpec = explore.Spec

// SweepPoint is one configuration cell of an expanded sweep grid.
type SweepPoint = explore.Point

// SweepOutcome is the evaluated result of one sweep cell.
type SweepOutcome = explore.Outcome

// SweepResult is a completed sweep: one outcome per grid cell in expansion
// order, with JSON/CSV emitters and a speedup-vs-area Pareto summary.
type SweepResult = explore.ResultSet

// SimObjectiveReplayFactor is the trajectory factor of the cost accounting
// shared by SweepSpec.SimulationCost and the service's request guards: a
// simulation-scored run is charged this many whole-trace replays per frame,
// approximating one replay per trajectory prefix (the prefix count is
// unknown before profiling).
const SimObjectiveReplayFactor = explore.SimObjectiveReplayFactor

// PlatformConfig is a named platform variant from the preset registry.
type PlatformConfig = platform.Config

// PlatformPresets returns the sorted names of the registered platform
// variants usable in SweepSpec.Presets and OptionsFor.
func PlatformPresets() []string { return platform.Names() }

// OptionsFor returns the paper-default Options with the platform fields
// (area, reconfiguration cost, CGC shape, clock ratio, communication and
// operator cost table) replaced by the named preset's characterization.
// The empty name and "default" return DefaultOptions unchanged.
func OptionsFor(preset string) (Options, error) {
	p, err := presetPlatform(preset)
	if err != nil {
		return Options{}, err
	}
	opts := DefaultOptions()
	applyPlatform(&opts, p)
	return opts, nil
}

// DefaultConstraint returns the paper's evaluation timing constraint for a
// built-in benchmark (60000 FPGA cycles for OFDM, 21×10⁶ for JPEG), or 0
// for unknown names. The values live in the benchmark registry, so new
// benchmarks carry their own default.
func DefaultConstraint(bench string) int64 {
	d, ok := lookupBenchmark(bench)
	if !ok {
		return 0
	}
	return d.constraint
}

// profileCache memoizes compiled+profiled benchmarks per (name, seed), so a
// sweep evaluates its whole grid against one App and one RunProfile instead
// of recompiling and re-interpreting per cell. Profiling is
// input-deterministic — the same benchmark and seed always yield the same
// block frequencies — which is what makes the cache sound.
var profileCache = struct {
	mu      sync.Mutex
	entries map[profileKey]*profileEntry
	order   []profileKey // insertion order, for the capacity bound
	// bound caps the memo (see DefaultProfileMemoBound); 0 disables the
	// bound for trusted deployments whose seed space is known.
	bound int
}{entries: map[profileKey]*profileEntry{}, bound: DefaultProfileMemoBound}

// DefaultProfileMemoBound is the benchmark profile memo's default capacity.
// Each entry pins a full compiled App plus its profile, and the
// partitioning service keys entries by an arbitrary client-supplied seed,
// so by default the memo must not grow without bound; once full, the
// oldest entry is dropped (callers already holding it are unaffected — the
// next request for that key simply recompiles). Operators can resize or
// lift the bound with SetProfileMemoBound (hservd: -profile-memo).
const DefaultProfileMemoBound = 64

// SetProfileMemoBound resizes the process-wide benchmark profile memo used
// by ProfileBenchmarkCached: n entries, or unbounded when n is 0. Shrinking
// below the current population evicts oldest-first. It returns an error for
// negative n.
func SetProfileMemoBound(n int) error {
	if n < 0 {
		return fmt.Errorf("hybridpart: profile memo bound must be non-negative, got %d", n)
	}
	profileCache.mu.Lock()
	defer profileCache.mu.Unlock()
	profileCache.bound = n
	evictOverflowLocked()
	return nil
}

// ProfileMemoStats reports the benchmark profile memo's population and its
// configured bound (0 = unbounded). The partitioning service surfaces both
// in /debug/stats.
func ProfileMemoStats() (size, bound int) {
	profileCache.mu.Lock()
	defer profileCache.mu.Unlock()
	return len(profileCache.entries), profileCache.bound
}

func evictOverflowLocked() {
	bound := profileCache.bound
	if bound <= 0 {
		return
	}
	for len(profileCache.entries) > bound {
		oldest := profileCache.order[0]
		profileCache.order = profileCache.order[1:]
		delete(profileCache.entries, oldest)
	}
}

type profileKey struct {
	bench string
	seed  uint32
}

type profileEntry struct {
	once sync.Once
	app  *App
	prof *RunProfile
	err  error
}

// ProfileBenchmarkCached compiles the named benchmark, runs it once on its
// standard input vectors for the seed (the paper's: 6 payload symbols, one
// 256×256 frame) and returns the app plus its profile, behind a
// concurrency-safe, bounded process-level cache: the first caller for a
// (name, seed) pair compiles and profiles, every other caller — concurrent
// or later — shares the result, and once the memo bound is reached the
// oldest pair is evicted. The returned App and RunProfile are safe for
// concurrent *Profiled engine runs (all only read them); callers that need
// to feed further inputs should use BenchmarkWorkload instead.
func ProfileBenchmarkCached(name string, seed uint32) (*App, *RunProfile, error) {
	key := profileKey{bench: name, seed: seed}
	profileCache.mu.Lock()
	e := profileCache.entries[key]
	if e == nil {
		e = &profileEntry{}
		profileCache.entries[key] = e
		profileCache.order = append(profileCache.order, key)
		evictOverflowLocked()
	}
	profileCache.mu.Unlock()

	e.once.Do(func() {
		w, err := BenchmarkWorkload(name, seed)
		if err != nil {
			e.err = err
			return
		}
		e.app, e.prof = w.app, w.Profile()
	})
	return e.app, e.prof, e.err
}
