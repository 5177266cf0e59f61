package hybridpart

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hybridpart/internal/platform"
)

// TestFingerprintDistinct is the satellite acceptance test: every Options
// field, mutated on its own, must change the fingerprint, and equal option
// sets must hash equal however they were built.
func TestFingerprintDistinct(t *testing.T) {
	base := DefaultOptions()
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"afpga", func(o *Options) { o.AFPGA++ }},
		{"reconfig", func(o *Options) { o.ReconfigCycles++ }},
		{"regions", func(o *Options) { o.Regions = 2 }},
		{"numcgcs", func(o *Options) { o.NumCGCs++ }},
		{"cgcrows", func(o *Options) { o.CGCRows++ }},
		{"cgccols", func(o *Options) { o.CGCCols++ }},
		{"memports", func(o *Options) { o.MemPorts++ }},
		{"clockratio", func(o *Options) { o.ClockRatio++ }},
		{"regbank", func(o *Options) { o.RegBankWords++ }},
		{"commword", func(o *Options) { o.CommCyclesPerWord++ }},
		{"commsync", func(o *Options) { o.CommSyncCycles++ }},
		{"constraint", func(o *Options) { o.Constraint++ }},
		{"order", func(o *Options) { o.Order = OrderByFreq }},
		{"maxmoves", func(o *Options) { o.MaxMoves++ }},
		{"skipnonimproving", func(o *Options) { o.SkipNonImproving = true }},
		{"walu", func(o *Options) { o.WeightALU++ }},
		{"wmul", func(o *Options) { o.WeightMul++ }},
		{"wdiv", func(o *Options) { o.WeightDiv++ }},
		{"wmem", func(o *Options) { o.WeightMem++ }},
		{"costs", func(o *Options) { o.Costs = platform.DSPRichOpCosts() }},
		{"costs-one-field", func(o *Options) { o.Costs.LatMul++ }},
		// The co-simulation knobs moved into Options precisely so that every
		// mutation below lands in the fingerprint: two cached entries that
		// differ in any sim knob must never collide.
		{"objective", func(o *Options) { o.Objective = ObjectiveSimulated }},
		{"rerankk", func(o *Options) { o.RerankK = 3 }},
		{"simframes", func(o *Options) { o.SimFrames = 8 }},
		{"simports", func(o *Options) { o.SimPorts = 2 }},
		{"simprefetch", func(o *Options) { o.SimPrefetch = true }},
	}
	baseFP := base.Fingerprint()
	seen := map[string]string{"(base)": baseFP}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := base
			tc.mutate(&mutated)
			fp := mutated.Fingerprint()
			if fp == baseFP {
				t.Fatalf("mutating %s did not change the fingerprint", tc.name)
			}
			if prev, dup := seen[fp]; dup {
				t.Fatalf("fingerprint collision between %s and %s", tc.name, prev)
			}
			seen[fp] = tc.name

			// Determinism: the same value hashes the same on every call,
			// and an independently-built equal value matches.
			if fp != mutated.Fingerprint() {
				t.Fatal("fingerprint not deterministic")
			}
			again := base
			tc.mutate(&again)
			if again.Fingerprint() != fp {
				t.Fatal("equal options fingerprint unequally")
			}
		})
	}
}

func TestFingerprintEqualConstruction(t *testing.T) {
	// Built via DefaultOptions vs. assembled field-by-field through the
	// engine: same resolved knobs, same fingerprint.
	eng, err := NewEngine(WithConstraint(12345), WithArea(5000))
	if err != nil {
		t.Fatal(err)
	}
	manual := DefaultOptions()
	manual.Constraint = 12345
	manual.AFPGA = 5000
	if eng.Options().Fingerprint() != manual.Fingerprint() {
		t.Fatal("identical knob sets produced different fingerprints")
	}
}

func TestFingerprintShape(t *testing.T) {
	fp := DefaultOptions().Fingerprint()
	if len(fp) != 64 || strings.ToLower(fp) != fp {
		t.Fatalf("fingerprint is not lowercase sha256 hex: %q", fp)
	}
}

func TestSourceHash(t *testing.T) {
	if SourceHash("a") == SourceHash("b") {
		t.Fatal("distinct sources hash equal")
	}
	w, err := NewWorkload(firSrc, "main_fn")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.SourceHash(), SourceHash(firSrc); got != want {
		t.Fatalf("workload source hash %q != SourceHash(src) %q", got, want)
	}
	if w.App().SourceHash() != w.SourceHash() {
		t.Fatal("App and Workload disagree on the source hash")
	}
}

// referenceFingerprintLines is the reflective encoder Fingerprint replaced,
// kept as the oracle: every exported field, nested structs flattened into a
// dotted path, printed with fmt's %v as "path=value", sorted, one per line.
// It visits fields by reflection, so a field added to Options is in its
// output before anyone teaches the production encoder about it.
func referenceFingerprintLines(o Options) []byte {
	var pairs []string
	var collect func(prefix string, v reflect.Value)
	collect = func(prefix string, v reflect.Value) {
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			name := prefix + f.Name
			fv := v.Field(i)
			if fv.Kind() == reflect.Struct {
				collect(name+".", fv)
				continue
			}
			pairs = append(pairs, fmt.Sprintf("%s=%v", name, fv.Interface()))
		}
	}
	collect("", reflect.ValueOf(o))
	sort.Strings(pairs)
	var b []byte
	for _, p := range pairs {
		b = append(append(b, p...), '\n')
	}
	return b
}

func referenceFingerprint(o Options) string {
	sum := sha256.Sum256(referenceFingerprintLines(o))
	return hex.EncodeToString(sum[:])
}

// leafFields returns the settable exported leaf fields of *o with their
// dotted paths, in declaration order.
func leafFields(o *Options) (paths []string, fields []reflect.Value) {
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			name := prefix + t.Field(i).Name
			if fv := v.Field(i); fv.Kind() == reflect.Struct {
				walk(name+".", fv)
			} else {
				paths, fields = append(paths, name), append(fields, fv)
			}
		}
	}
	walk("", reflect.ValueOf(o).Elem())
	return paths, fields
}

// optionsFromBytes fills every exported leaf field of an Options value from
// data, eight little-endian bytes per field (missing bytes read as zero):
// ints take the full 64-bit value, narrower kinds such as KernelOrder keep
// the low bits, bools the lowest bit. Out-of-range Order and Objective
// values come out as often as valid ones.
func optionsFromBytes(data []byte) Options {
	var o Options
	_, fields := leafFields(&o)
	for _, f := range fields {
		var word [8]byte
		data = data[copy(word[:], data):]
		v := binary.LittleEndian.Uint64(word[:])
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(int64(v))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(v)
		case reflect.Bool:
			f.SetBool(v&1 == 1)
		default:
			panic("optionsFromBytes: no filler for field kind " + f.Kind().String())
		}
	}
	return o
}

// optionsBytes is the inverse of optionsFromBytes for seeding the fuzzer.
func optionsBytes(o Options) []byte {
	var b []byte
	_, fields := leafFields(&o)
	for _, f := range fields {
		var v uint64
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v = uint64(f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v = f.Uint()
		case reflect.Bool:
			if f.Bool() {
				v = 1
			}
		}
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b
}

// checkFingerprintMatchesReference requires the production encoder to write
// exactly the reference lines and Fingerprint to hash them.
func checkFingerprintMatchesReference(t *testing.T, o Options) {
	t.Helper()
	var buf [fingerprintBufLen]byte
	got := o.appendFingerprintLines(buf[:0])
	want := referenceFingerprintLines(o)
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded lines differ from the reference\n got %q\nwant %q", got, want)
	}
	if len(got) > fingerprintBufLen {
		t.Fatalf("encoding is %d bytes, longer than the %d-byte buffer", len(got), fingerprintBufLen)
	}
	if fp, ref := o.Fingerprint(), referenceFingerprint(o); fp != ref {
		t.Fatalf("Fingerprint %s, reference %s", fp, ref)
	}
}

// FuzzOptionsFingerprint fuzzes every Options field, Costs included, and
// requires the encoder to match the reflective reference byte for byte.
func FuzzOptionsFingerprint(f *testing.F) {
	def := DefaultOptions()
	sim := def
	sim.Objective, sim.SimFrames, sim.SimPrefetch, sim.Costs = ObjectiveSimulated, 8, true, platform.DSPRichOpCosts()
	f.Add([]byte{})
	f.Add(optionsBytes(def))
	f.Add(optionsBytes(sim))
	f.Add(bytes.Repeat([]byte{0xff}, 8*40))
	// Every int at math.MinInt64, Order 0 ("total-weight"), bools false:
	// the longest line of each field, which must fit the stack buffer.
	f.Add(bytes.Repeat([]byte{0x00, 0, 0, 0, 0, 0, 0, 0x80}, 40))
	f.Add(bytes.Repeat([]byte{0x07, 0, 0, 0, 0, 0, 0, 0}, 40))
	var distinct []byte // field i holds i+1: a swapped read shows
	for i := range 40 {
		distinct = binary.LittleEndian.AppendUint64(distinct, uint64(i+1))
	}
	f.Add(distinct)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFingerprintMatchesReference(t, optionsFromBytes(data))
	})
}

// TestFingerprintCoversEveryField walks the exported fields by reflection:
// the encoder must write one line for each, in sorted name order.
func TestFingerprintCoversEveryField(t *testing.T) {
	o := DefaultOptions()
	paths, _ := leafFields(&o)
	sort.Strings(paths)
	var names []string
	for _, line := range strings.Split(strings.TrimSuffix(string(o.appendFingerprintLines(nil)), "\n"), "\n") {
		name, _, _ := strings.Cut(line, "=")
		names = append(names, name)
	}
	if !reflect.DeepEqual(names, paths) {
		t.Fatalf("encoder writes fields\n%v\nexported fields are\n%v", names, paths)
	}
}

// TestFingerprintOptionsPinned pins the fingerprints of the default knob set
// and of a sim-objective ×8 variant. They are cache keys of the service's
// in-memory and disk stores: the values are those of the reflective encoder
// and must not move.
func TestFingerprintOptionsPinned(t *testing.T) {
	def := DefaultOptions()
	sim := def
	sim.Objective, sim.SimFrames = ObjectiveSimulated, 8
	for _, c := range []struct {
		name string
		o    Options
		want string
	}{
		{"default", def, "b5be700ac4678863fa0d47fa50b928b4fa01a1531ecaec3d98f1a22182f486f3"},
		{"sim-x8", sim, "46f4f853101b4516d029341e8f662850f12c596e2d2bea613143a3aced998faf"},
	} {
		if got := c.o.Fingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
		if got := string(c.o.AppendFingerprint([]byte("opts="))); got != "opts="+c.want {
			t.Errorf("%s: AppendFingerprint %q, want %q", c.name, got, "opts="+c.want)
		}
	}
}

func BenchmarkOptionsFingerprint(b *testing.B) {
	o := DefaultOptions()
	o.Objective, o.SimFrames = ObjectiveSimulated, 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = o.Fingerprint()
	}
}
