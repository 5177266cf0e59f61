package hybridpart

import (
	"fmt"
	"strings"

	"hybridpart/internal/apps"
)

// benchmarkDef is one registry row: everything a CLI or the service needs
// to compile, feed and evaluate a built-in benchmark. New benchmarks appear
// in every CLI and in the service automatically once listed here.
type benchmarkDef struct {
	name string
	// constraint is the paper's evaluation timing constraint in FPGA cycles.
	constraint int64
	// source returns the benchmark's mini-C text; entry names the function
	// the methodology flattens.
	source func() (string, error)
	entry  string
	// inputArray is the global array holding the profiling input; input
	// generates its deterministic vector for a seed.
	inputArray string
	input      func(seed uint32) []int32
}

// benchmarkDefs is the single source of truth for the built-in benchmarks,
// in presentation order.
var benchmarkDefs = []benchmarkDef{
	{
		name:       BenchOFDM,
		constraint: 60000,
		source:     func() (string, error) { return apps.OFDMSource(), nil },
		entry:      apps.OFDMEntry,
		inputArray: OFDMBitsArray,
		input:      OFDMBits,
	},
	{
		name:       BenchJPEG,
		constraint: 21000000,
		source:     apps.JPEGSource,
		entry:      apps.JPEGEntry,
		inputArray: JPEGImageArray,
		input:      JPEGImage,
	},
}

func lookupBenchmark(name string) (benchmarkDef, bool) {
	for _, d := range benchmarkDefs {
		if d.name == name {
			return d, true
		}
	}
	return benchmarkDef{}, false
}

// compile returns the benchmark's App from the compiled-App memo.
func (d benchmarkDef) compile() (*App, error) {
	src, err := d.source()
	if err != nil {
		return nil, err
	}
	return compileCached(src, d.entry)
}

// Benchmarks returns the names of the built-in benchmarks accepted by
// BenchmarkWorkload, BenchmarkApp and ProfileBenchmarkCached — the single
// source of truth CLIs should validate against.
func Benchmarks() []string {
	names := make([]string, len(benchmarkDefs))
	for i, d := range benchmarkDefs {
		names[i] = d.name
	}
	return names
}

// IsBenchmark reports whether name is a built-in benchmark.
func IsBenchmark(name string) bool {
	_, ok := lookupBenchmark(name)
	return ok
}

// Benchmark identifiers for the paper's two evaluation applications.
const (
	// BenchOFDM is the IEEE 802.11a OFDM transmitter front-end (QAM +
	// 64-point IFFT + cyclic prefix), profiled over 6 payload symbols.
	BenchOFDM = "ofdm"
	// BenchJPEG is the baseline JPEG encoder (DCT, quantizer, zig-zag,
	// Huffman), profiled over a 256×256 image.
	BenchJPEG = "jpeg"
)

// OFDM I/O constants re-exported for hosts driving the benchmark.
const (
	OFDMBitsArray  = apps.OFDMBitsArray
	OFDMOutIArray  = apps.OFDMOutIArray
	OFDMOutQArray  = apps.OFDMOutQArray
	OFDMEntryFunc  = apps.OFDMEntry
	OFDMTotalBits  = apps.OFDMTotalBits
	OFDMSymbols    = apps.OFDMSymbols
	OFDMSampleLen  = apps.OFDMSymbols * apps.SymbolSamples
	JPEGImageArray = apps.JPEGImageArray
	JPEGStream     = apps.JPEGStreamArray
	JPEGBitsArray  = apps.JPEGStateArray
	JPEGEntryFunc  = apps.JPEGEntry
	JPEGPixels     = apps.ImagePixels
)

// OFDMBits generates a deterministic payload bit stream for profiling runs.
func OFDMBits(seed uint32) []int32 { return apps.GenBits(apps.OFDMTotalBits, seed) }

// JPEGImage generates a deterministic 256×256 test image.
func JPEGImage(seed uint32) []int32 { return apps.GenImage(seed) }

// BenchmarkApp compiles the named built-in benchmark without profiling it —
// the registry-driven entry point for tools that only inspect the CDFG
// (cdfgdump).
func BenchmarkApp(name string) (*App, error) {
	d, ok := lookupBenchmark(name)
	if !ok {
		return nil, errUnknownBenchmark(name)
	}
	return d.compile()
}

type errUnknownBenchmark string

func (e errUnknownBenchmark) Error() string {
	quoted := make([]string, len(benchmarkDefs))
	for i, d := range benchmarkDefs {
		quoted[i] = fmt.Sprintf("%q", d.name)
	}
	return "hybridpart: unknown benchmark " + string(e) + " (want " + strings.Join(quoted, " or ") + ")"
}
