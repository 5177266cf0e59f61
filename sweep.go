package hybridpart

import (
	"fmt"
	"slices"
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

// fifoMemo is a bounded, process-wide memo of values computed once per key.
// The first caller for a key computes under the entry's sync.Once; every
// other caller, concurrent or later, shares the result. A failed
// computation is dropped, so the next caller retries. The memo is bounded
// by an entry count and by a total weight (0 lifts either bound); a value
// whose own weight exceeds the weight bound is computed and never kept.
// Once over a bound, the oldest entries are dropped; callers already
// holding one are unaffected.
type fifoMemo[K comparable, V any] struct {
	mu        sync.Mutex
	entries   map[K]*memoEntry[V]
	order     []K // insertion order, for the bounds
	bound     int // entry count bound
	maxWeight int // total weight bound
	weight    int // total weight of the entries
}

type memoEntry[V any] struct {
	once   sync.Once
	val    V
	err    error
	weight int
}

func newFIFOMemo[K comparable, V any](bound, maxWeight int) *fifoMemo[K, V] {
	return &fifoMemo[K, V]{entries: map[K]*memoEntry[V]{}, bound: bound, maxWeight: maxWeight}
}

// get returns the value for key, computing it on the first call.
func (m *fifoMemo[K, V]) get(key K, weight int, compute func() (V, error)) (V, error) {
	if m.maxWeight > 0 && weight > m.maxWeight {
		return compute()
	}
	m.mu.Lock()
	e := m.entries[key]
	if e == nil {
		e = &memoEntry[V]{weight: weight}
		m.entries[key] = e
		m.order = append(m.order, key)
		m.weight += weight
		m.evictLocked()
	}
	m.mu.Unlock()
	e.once.Do(func() {
		if e.val, e.err = compute(); e.err != nil {
			m.drop(key, e)
		}
	})
	return e.val, e.err
}

// drop removes key's entry if it is still e.
func (m *fifoMemo[K, V]) drop(key K, e *memoEntry[V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[key] != e {
		return
	}
	delete(m.entries, key)
	m.weight -= e.weight
	m.order = slices.DeleteFunc(m.order, func(k K) bool { return k == key })
}

// evictLocked drops the oldest entries until both bounds hold.
func (m *fifoMemo[K, V]) evictLocked() {
	for len(m.order) > 0 && (m.bound > 0 && len(m.entries) > m.bound ||
		m.maxWeight > 0 && m.weight > m.maxWeight) {
		oldest := m.order[0]
		m.order = m.order[1:]
		m.weight -= m.entries[oldest].weight
		delete(m.entries, oldest)
	}
}

// stats reports the memo's population and its entry bound.
func (m *fifoMemo[K, V]) stats() (size, bound int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries), m.bound
}

// profileCache memoizes compiled+profiled benchmarks per (name, seed), so a
// sweep evaluates its whole grid against one App and one RunProfile instead
// of recompiling and re-interpreting per cell. Profiling is
// input-deterministic — the same benchmark and seed always yield the same
// block frequencies — which is what makes the cache sound. Its bound is
// DefaultProfileMemoBound until SetProfileMemoBound changes it; 0 disables
// the bound for trusted deployments whose seed space is known.
var profileCache = newFIFOMemo[profileKey, profiled](DefaultProfileMemoBound, 0)

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
	profileCache.evictLocked()
	return nil
}

// ProfileMemoStats reports the benchmark profile memo's population and its
// configured bound (0 = unbounded). The partitioning service surfaces both
// in /debug/stats.
func ProfileMemoStats() (size, bound int) { return profileCache.stats() }

type profileKey struct {
	bench string
	seed  uint32
}

type profiled struct {
	app  *App
	prof *RunProfile
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
	p, err := profileCache.get(profileKey{bench: name, seed: seed}, 0, func() (profiled, error) {
		w, err := BenchmarkWorkload(name, seed)
		if err != nil {
			return profiled{}, err
		}
		return profiled{w.app, w.Profile()}, nil
	})
	return p.app, p.prof, err
}

// sourceApps memoizes compiled Apps per (SourceHash, entry) pair, so a
// repeated source — every built-in benchmark, and a client that profiles
// one inline source on many inputs — is parsed, lowered and flattened once
// and its block and latency tables are built once. Compilation depends on
// nothing but the text and the entry, and an App is shared read-only, so
// the memo is sound; every Workload still gets its own interpreter,
// globals and profile. The memo is bounded by sourceMemoEntries and by the
// sourceMemoBytes of source text its Apps were compiled from.
var sourceApps = newFIFOMemo[sourceKey, *App](sourceMemoEntries, sourceMemoBytes)

const (
	sourceMemoEntries = 64
	sourceMemoBytes   = 1 << 20
)

type sourceKey struct {
	hash, entry string
}

// compileCached is Compile behind the compiled-App memo.
func compileCached(src, entry string) (*App, error) {
	hash := SourceHash(src)
	return sourceApps.get(sourceKey{hash, entry}, len(src), func() (*App, error) {
		return compile(src, hash, entry)
	})
}

// SourceMemoStats reports the compiled-App memo's population and its entry
// bound. The partitioning service surfaces both in /debug/stats.
func SourceMemoStats() (size, bound int) { return sourceApps.stats() }
