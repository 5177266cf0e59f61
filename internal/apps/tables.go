// Package apps provides the two benchmark applications of the paper's
// evaluation — the front-end of an IEEE 802.11a OFDM transmitter (QAM
// mapping, 64-point IFFT, cyclic prefix) and a baseline JPEG encoder (level
// shift, 8×8 integer DCT, quantization, zig-zag, run-length/Huffman entropy
// coding) — as mini-C sources for the partitioning flow plus bit-exact Go
// reference implementations and deterministic input generators.
//
// The sources are the committed files src/ofdm.c and src/jpeg.c, embedded
// as they are. Their tables (twiddles, DCT basis, quantization reciprocals,
// bit reversal, the Huffman codes) are fixed initializers; the Go
// generators that computed them live in the package's tests, which check
// every committed table against them.
//
// The AMDREL project's original C sources are proprietary. These
// re-implementations follow the same algorithms, loop structure and input
// sizes (6 payload symbols; a 256×256-byte image), which is what the
// methodology consumes: it partitions basic blocks by their operations and
// execution counts, not by the exact text of the original code.
//
// The JPEG AC Huffman table is not the example table of the standard's
// Annex K. It is a canonical, length-limited (16-bit) code built over a
// synthetic frequency model of AC symbols (EOB most frequent, short runs and
// small sizes next), the construction an encoder with optimized tables uses.
// Annex K is itself only an example that encoders may replace, and the
// encoder's blocks, operations and loops are the same under any table; a
// different table changes only the values loaded and, through the code
// lengths, the stream length and how often put_bits straddles a word.
package apps

import (
	"fmt"
	"strconv"
	"strings"
)

// ---- Fixed-point parameters shared by the mini-C sources and the Go
// references. All arithmetic is int32 with arithmetic shifts; the two
// implementations must stay in lockstep, which the tests verify bit-exactly.

const (
	// FFTSize is the 802.11a IFFT length; CPLen the cyclic-prefix samples.
	FFTSize = 64
	CPLen   = 16
	// SymbolSamples is the per-symbol output length (CP + body).
	SymbolSamples = FFTSize + CPLen
	// OFDMSymbols is the payload symbol count used throughout the paper's
	// experiments ("a number of 6 payload symbols").
	OFDMSymbols = 6
	// DataCarriers and BitsPerCarrier (16-QAM) give 192 payload bits/symbol.
	DataCarriers   = 48
	BitsPerCarrier = 4
	BitsPerSymbol  = DataCarriers * BitsPerCarrier
	OFDMTotalBits  = OFDMSymbols * BitsPerSymbol

	// twiddleQ is the Q-format of the IFFT twiddle factors.
	twiddleQ = 14
	// dctQ is the Q-format of the DCT basis matrix.
	dctQ = 12

	// ImageDim is the JPEG test image dimension ("an image of size 256x256
	// bytes").
	ImageDim    = 256
	ImagePixels = ImageDim * ImageDim
	BlockDim    = 8
	BlocksPerIm = (ImageDim / BlockDim) * (ImageDim / BlockDim)
	// BitstreamWords sizes the packed entropy output buffer.
	BitstreamWords = 65536 / 2
)

// pilotAmp is the BPSK pilot amplitude.
const pilotAmp = 2 * 2048

// table returns the initializer of the global array name in src, one of the
// committed sources. The references read their tables here rather than
// through the front end they check. The sources are fixed text, so a missing
// or malformed initializer is a defect in them and table panics.
func table(src, name string) []int32 {
	_, rest, ok := strings.Cut(src, "\nint "+name+"[")
	line, _, _ := strings.Cut(rest, "\n")
	_, init, okInit := strings.Cut(line, "] = {")
	body, _, okEnd := strings.Cut(init, "};")
	if !ok || !okInit || !okEnd {
		panic("apps: no initializer for " + name)
	}
	fields := strings.Split(body, ",")
	out := make([]int32, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 32)
		if err != nil {
			panic(fmt.Sprintf("apps: %s[%d]: %v", name, i, err))
		}
		out[i] = int32(v)
	}
	return out
}
