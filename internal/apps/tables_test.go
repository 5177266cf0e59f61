package apps

import (
	"math"
	"slices"
	"testing"

	"hybridpart/internal/lower"
)

// The generators below computed the tables of the committed sources in
// src/. They stay as the tests' record of where each initializer comes
// from: TestTablesMatchGenerators checks every committed table against them.

// qamLUT maps 2 Gray-coded bits to a 16-QAM level in Q11 (±1·2048, ±3·2048).
var qamLUT = [4]int32{-3 * 2048, -1 * 2048, 3 * 2048, 1 * 2048}

// dataBins returns the FFT bin of each of the 48 data subcarriers in
// logical order (-26..26, skipping DC and the ±7/±21 pilots).
func dataBins() []int32 {
	var bins []int32
	for k := -26; k <= 26; k++ {
		switch k {
		case 0, 7, -7, 21, -21:
			continue
		}
		bin := k
		if bin < 0 {
			bin += FFTSize
		}
		bins = append(bins, int32(bin))
	}
	return bins
}

// pilotBins returns the FFT bins of the four pilots.
func pilotBins() []int32 {
	out := []int32{}
	for _, k := range []int{-21, -7, 7, 21} {
		bin := k
		if bin < 0 {
			bin += FFTSize
		}
		out = append(out, int32(bin))
	}
	return out
}

// bitrev64 returns the 6-bit bit-reversal permutation.
func bitrev64() []int32 {
	out := make([]int32, FFTSize)
	for i := 0; i < FFTSize; i++ {
		r := 0
		for b := 0; b < 6; b++ {
			r = (r << 1) | ((i >> b) & 1)
		}
		out[i] = int32(r)
	}
	return out
}

// twiddles returns the Q14 IFFT twiddle factors e^{+j2πk/64} for k=0..31.
func twiddles() (re, im []int32) {
	re = make([]int32, FFTSize/2)
	im = make([]int32, FFTSize/2)
	for k := 0; k < FFTSize/2; k++ {
		ang := 2 * math.Pi * float64(k) / FFTSize
		re[k] = int32(math.Round((1 << twiddleQ) * math.Cos(ang)))
		im[k] = int32(math.Round((1 << twiddleQ) * math.Sin(ang)))
	}
	return re, im
}

// dctMatrixQ12 returns the 8×8 orthonormal DCT-II basis in Q12, flattened
// row-major: C[i][j] = c(i)/2 · cos((2j+1)iπ/16), c(0)=1/√2, c(i>0)=1.
func dctMatrixQ12() []int32 {
	out := make([]int32, 64)
	for i := 0; i < 8; i++ {
		ci := 1.0
		if i == 0 {
			ci = 1 / math.Sqrt2
		}
		for j := 0; j < 8; j++ {
			v := ci / 2 * math.Cos(float64(2*j+1)*float64(i)*math.Pi/16)
			out[i*8+j] = int32(math.Round(v * (1 << dctQ)))
		}
	}
	return out
}

// quantTable is the standard JPEG luminance quantization matrix (quality
// 50), row-major.
var quantTable = []int32{
	16, 11, 10, 16, 24, 40, 51, 61,
	12, 12, 14, 19, 26, 58, 60, 55,
	14, 13, 16, 24, 40, 57, 69, 56,
	14, 17, 22, 29, 51, 87, 80, 62,
	18, 22, 37, 56, 68, 109, 103, 77,
	24, 35, 55, 64, 81, 104, 113, 92,
	49, 64, 78, 87, 103, 121, 120, 101,
	72, 92, 95, 98, 112, 100, 103, 99,
}

// quantRecip returns the Q16 reciprocals used for division-free
// quantization: q = (|coef|·recip + 2^15) >> 16 (the paper's DFGs contain
// no divisions; real encoders use the same trick).
func quantRecip() []int32 {
	out := make([]int32, 64)
	for i, q := range quantTable {
		out[i] = int32((1 << 16) / q)
	}
	return out
}

// zigzag is the standard JPEG zig-zag scan order (index i holds the
// row-major position visited i-th).
var zigzag = []int32{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// dcCodes returns the canonical DC-category Huffman table with the standard
// JPEG luminance length assignment (categories 0–11).
func dcCodes() (codeArr, lenArr []int32) {
	stdLens := []int{2, 3, 3, 3, 3, 3, 4, 5, 6, 7, 8, 9}
	lengths := map[int]int{}
	for cat, l := range stdLens {
		lengths[cat] = l
	}
	codes := assignCanonical(lengths)
	codeArr = make([]int32, 12)
	lenArr = make([]int32, 12)
	for cat := 0; cat < 12; cat++ {
		codeArr[cat] = int32(codes[cat].Bits)
		lenArr[cat] = int32(codes[cat].Len)
	}
	return codeArr, lenArr
}

// acCodes returns a canonical AC Huffman table indexed by the JPEG
// run/size symbol (run<<4 | size). The length distribution is derived from
// a synthetic frequency model mirroring typical AC statistics (EOB most
// frequent, short runs and small sizes next), built with the same canonical
// construction a standards-compliant encoder uses. The package doc says why
// a non-Annex-K table is an acceptable substitution.
func acCodes() (codeArr, lenArr []int32, err error) {
	freqs := map[int]uint64{}
	const eob = 0x00
	const zrl = 0xF0
	freqs[eob] = 1 << 30
	freqs[zrl] = 1 << 16
	for run := 0; run <= 15; run++ {
		for size := 1; size <= 10; size++ {
			sym := run<<4 | size
			f := uint64(1<<34) / uint64((run+1)*(run+1)) / uint64((size+1)*(size+1)*(size+1))
			if f == 0 {
				f = 1
			}
			freqs[sym] = f
		}
	}
	codes, err := BuildCanonical(freqs, 16)
	if err != nil {
		return nil, nil, err
	}
	codeArr = make([]int32, 256)
	lenArr = make([]int32, 256)
	for sym, c := range codes {
		codeArr[sym] = int32(c.Bits)
		lenArr[sym] = int32(c.Len)
	}
	return codeArr, lenArr, nil
}

// TestTablesMatchGenerators checks each initialized global of the committed
// sources three ways: table's scan, the generator that produced it, and the
// initializer the front end lowers. TestIRGolden prints array sizes only, so
// this is the check that pins the values.
func TestTablesMatchGenerators(t *testing.T) {
	twr, twi := twiddles()
	dcCode, dcLen := dcCodes()
	acCode, acLen, err := acCodes()
	if err != nil {
		t.Fatal(err)
	}
	jpeg, err := JPEGSource()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, src string
		want      map[string][]int32
	}{
		{"ofdm", OFDMSource(), map[string][]int32{
			"QLUT": qamLUT[:], "DBIN": dataBins(), "PBIN": pilotBins(),
			"BRV": bitrev64(), "TWR": twr, "TWI": twi,
		}},
		{"jpeg", jpeg, map[string][]int32{
			"DCTM": dctMatrixQ12(), "QRECIP": quantRecip(), "ZZ": zigzag,
			"DCCODE": dcCode, "DCLEN": dcLen, "ACCODE": acCode, "ACLEN": acLen,
		}},
	} {
		prog, err := lower.LowerSource(c.src)
		if err != nil {
			t.Fatalf("%s: lower: %v", c.name, err)
		}
		lowered := map[string][]int32{}
		for _, g := range prog.Globals {
			if len(g.Init) > 0 {
				lowered[g.Name] = g.Init
			}
		}
		if len(lowered) != len(c.want) {
			t.Errorf("%s: %d initialized globals, the test covers %d", c.name, len(lowered), len(c.want))
		}
		for name, want := range c.want {
			if got := table(c.src, name); !slices.Equal(got, want) {
				t.Errorf("%s: table(%s) = %v, generator gives %v", c.name, name, got, want)
			}
			if got := lowered[name]; !slices.Equal(got, want) {
				t.Errorf("%s: lowered %s init = %v, generator gives %v", c.name, name, got, want)
			}
		}
	}
}

// TestTablePanics: a missing or malformed initializer is a defect in the
// committed text, so table refuses it loudly.
func TestTablePanics(t *testing.T) {
	for _, c := range []struct{ name, src, table string }{
		{"missing", "\nint A[2] = {1, 2};\n", "B"},
		{"no initializer", "\nint A[2];\nint B[1] = {3};\n", "A"},
		{"malformed", "\nint A[2] = {1, x};\n", "A"},
		{"out of range", "\nint A[1] = {4294967296};\n", "A"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: table(%q) did not panic", c.name, c.table)
				}
			}()
			table(c.src, c.table)
		}()
	}
}
