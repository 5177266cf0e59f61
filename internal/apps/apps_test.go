package apps

import (
	"fmt"
	"testing"
	"testing/quick"

	"hybridpart/internal/interp"
	"hybridpart/internal/ir"
	"hybridpart/internal/lower"
)

func TestHuffmanCanonicalSmall(t *testing.T) {
	codes, err := BuildCanonical(map[int]uint64{0: 10, 1: 5, 2: 2, 3: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := validatePrefixFree(codes, 16); err != nil {
		t.Fatal(err)
	}
	// Most frequent symbol gets the shortest code.
	if codes[0].Len > codes[3].Len {
		t.Fatalf("frequent symbol longer than rare one: %+v", codes)
	}
}

func TestHuffmanSingleSymbol(t *testing.T) {
	codes, err := BuildCanonical(map[int]uint64{7: 100}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if codes[7].Len != 1 {
		t.Fatalf("single symbol code length = %d, want 1", codes[7].Len)
	}
}

func TestHuffmanEmptyAndErrors(t *testing.T) {
	codes, err := BuildCanonical(map[int]uint64{}, 16)
	if err != nil || len(codes) != 0 {
		t.Fatalf("empty input: %v %v", codes, err)
	}
	if _, err := BuildCanonical(map[int]uint64{1: 1, 2: 1, 3: 1}, 1); err == nil {
		t.Fatal("3 symbols in 1-bit codes accepted")
	}
	if _, err := BuildCanonical(map[int]uint64{1: 1}, 0); err == nil {
		t.Fatal("maxLen 0 accepted")
	}
}

func TestHuffmanLengthLimit(t *testing.T) {
	// Fibonacci-like frequencies force deep unconstrained trees; the
	// limited build must still fit 16 bits.
	freqs := map[int]uint64{}
	a, b := uint64(1), uint64(1)
	for i := 0; i < 40; i++ {
		freqs[i] = a
		a, b = b, a+b
	}
	codes, err := BuildCanonical(freqs, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := validatePrefixFree(codes, 16); err != nil {
		t.Fatal(err)
	}
}

func TestHuffmanPrefixFreeQuick(t *testing.T) {
	check := func(raw []uint16) bool {
		freqs := map[int]uint64{}
		for i, f := range raw {
			if i >= 64 {
				break
			}
			freqs[i] = uint64(f)
		}
		codes, err := BuildCanonical(freqs, 16)
		if err != nil {
			// Only legitimate failure: more symbols than 16-bit codes can
			// hold, impossible at 64 symbols.
			return false
		}
		return validatePrefixFree(codes, 16) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestACDCTablesWellFormed(t *testing.T) {
	acCode, acLen, err := acCodes()
	if err != nil {
		t.Fatal(err)
	}
	codes := map[int]Code{}
	for sym := 0; sym < 256; sym++ {
		if acLen[sym] > 0 {
			codes[sym] = Code{Bits: uint32(acCode[sym]), Len: int(acLen[sym])}
		}
	}
	if err := validatePrefixFree(codes, 16); err != nil {
		t.Fatal(err)
	}
	// EOB, ZRL and every (run 0..15, size 1..10) symbol must have a code.
	if acLen[0x00] == 0 || acLen[0xF0] == 0 {
		t.Fatal("EOB/ZRL missing")
	}
	for run := 0; run <= 15; run++ {
		for size := 1; size <= 10; size++ {
			if acLen[run<<4|size] == 0 {
				t.Fatalf("missing AC code for run %d size %d", run, size)
			}
		}
	}
	dcCode, dcLen := dcCodes()
	dcm := map[int]Code{}
	for cat := 0; cat < 12; cat++ {
		dcm[cat] = Code{Bits: uint32(dcCode[cat]), Len: int(dcLen[cat])}
	}
	if err := validatePrefixFree(dcm, 9); err != nil {
		t.Fatal(err)
	}
	// Standard JPEG DC lengths.
	want := []int32{2, 3, 3, 3, 3, 3, 4, 5, 6, 7, 8, 9}
	for cat, l := range want {
		if dcLen[cat] != l {
			t.Errorf("DC cat %d length = %d, want %d", cat, dcLen[cat], l)
		}
	}
}

func TestTablesShapes(t *testing.T) {
	if got := len(dataBins()); got != 48 {
		t.Errorf("data bins = %d, want 48", got)
	}
	seen := map[int32]bool{}
	for _, b := range append(dataBins(), pilotBins()...) {
		if b == 0 {
			t.Error("DC bin used")
		}
		if seen[b] {
			t.Errorf("bin %d reused", b)
		}
		seen[b] = true
	}
	// Bit-reversal is an involutive permutation.
	br := bitrev64()
	for i, r := range br {
		if br[r] != int32(i) {
			t.Fatalf("bitrev not involutive at %d", i)
		}
	}
	// Twiddles: k=0 → (1,0) in Q14; k=16 → (0,1).
	twr, twi := twiddles()
	if twr[0] != 1<<14 || twi[0] != 0 {
		t.Errorf("W^0 = (%d,%d)", twr[0], twi[0])
	}
	if twr[16] != 0 || twi[16] != 1<<14 {
		t.Errorf("W^16 = (%d,%d), want (0,16384)", twr[16], twi[16])
	}
	// Zig-zag is a permutation of 0..63.
	zz := map[int32]bool{}
	for _, v := range zigzag {
		if v < 0 || v > 63 || zz[v] {
			t.Fatalf("zigzag invalid at %d", v)
		}
		zz[v] = true
	}
	// DCT matrix: row 0 is the scaled constant basis.
	d := dctMatrixQ12()
	for j := 1; j < 8; j++ {
		if d[j] != d[0] {
			t.Fatalf("DCT row 0 not constant: %v", d[:8])
		}
	}
}

// compileApp lowers one of the generated sources and returns machine +
// flattened program for profiling runs.
func compileApp(t *testing.T, src, entry string) (*interp.Machine, *ir.Program) {
	t.Helper()
	prog, err := lower.LowerSource(src)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return interp.New(prog), prog
}

func TestOFDMMiniCMatchesReference(t *testing.T) {
	src := OFDMSource()
	m, _ := compileApp(t, src, OFDMEntry)
	bits := GenBits(OFDMTotalBits, 1)
	copy(m.Global(OFDMBitsArray), bits)
	if _, err := m.Run(OFDMEntry); err != nil {
		t.Fatalf("run: %v", err)
	}
	wantI, wantQ, err := OFDMReference(bits)
	if err != nil {
		t.Fatal(err)
	}
	gotI := m.Global(OFDMOutIArray)
	gotQ := m.Global(OFDMOutQArray)
	for i := range wantI {
		if gotI[i] != wantI[i] || gotQ[i] != wantQ[i] {
			t.Fatalf("sample %d: got (%d,%d), want (%d,%d)", i, gotI[i], gotQ[i], wantI[i], wantQ[i])
		}
	}
	// Output must not be all zero.
	nz := 0
	for _, v := range gotI {
		if v != 0 {
			nz++
		}
	}
	if nz < len(gotI)/4 {
		t.Fatalf("suspiciously sparse output: %d nonzero of %d", nz, len(gotI))
	}
}

func TestOFDMCyclicPrefixProperty(t *testing.T) {
	bits := GenBits(OFDMTotalBits, 99)
	outI, outQ, err := OFDMReference(bits)
	if err != nil {
		t.Fatal(err)
	}
	// For every symbol, the first CPLen samples equal the last CPLen of the
	// symbol body.
	for sym := 0; sym < OFDMSymbols; sym++ {
		base := sym * SymbolSamples
		for i := 0; i < CPLen; i++ {
			if outI[base+i] != outI[base+CPLen+FFTSize-CPLen+i] {
				t.Fatalf("sym %d: CP mismatch at %d (I)", sym, i)
			}
			if outQ[base+i] != outQ[base+CPLen+FFTSize-CPLen+i] {
				t.Fatalf("sym %d: CP mismatch at %d (Q)", sym, i)
			}
		}
	}
}

func TestOFDMImpulseDC(t *testing.T) {
	// All-zero bits still produce pilot energy; a quick sanity check that
	// the IFFT moves energy out of the pilot bins into time domain.
	bits := make([]int32, OFDMTotalBits)
	outI, _, err := OFDMReference(bits)
	if err != nil {
		t.Fatal(err)
	}
	var energy int64
	for _, v := range outI[:SymbolSamples] {
		energy += int64(v) * int64(v)
	}
	if energy == 0 {
		t.Fatal("no pilot energy in time domain")
	}
}

func TestJPEGMiniCMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-frame interpretation in -short mode")
	}
	src, err := JPEGSource()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := compileApp(t, src, JPEGEntry)
	img := GenImage(1)
	copy(m.Global(JPEGImageArray), img)
	if _, err := m.Run(JPEGEntry); err != nil {
		t.Fatalf("run: %v", err)
	}
	wantStream, wantBits, err := JPEGReference(img)
	if err != nil {
		t.Fatal(err)
	}
	gotBits := m.Global(JPEGStateArray)[0]
	if gotBits != wantBits {
		t.Fatalf("bit count: got %d, want %d", gotBits, wantBits)
	}
	gotStream := m.Global(JPEGStreamArray)
	words := int(wantBits+31) / 32
	for i := 0; i < words; i++ {
		if gotStream[i] != wantStream[i] {
			t.Fatalf("stream word %d: got %#x, want %#x", i, uint32(gotStream[i]), uint32(wantStream[i]))
		}
	}
	if wantBits == 0 {
		t.Fatal("empty bitstream")
	}
	// Compression sanity: the stream must be much smaller than raw 8-bit.
	if int(wantBits) >= ImagePixels*8 {
		t.Fatalf("no compression: %d bits for %d pixels", wantBits, ImagePixels)
	}
}

func TestJPEGFlatImageCompressesHard(t *testing.T) {
	img := make([]int32, ImagePixels)
	for i := range img {
		img[i] = 128
	}
	_, bits, err := JPEGReference(img)
	if err != nil {
		t.Fatal(err)
	}
	// A flat image is nearly all EOBs: a few bits per block.
	if int(bits) > BlocksPerIm*8 {
		t.Fatalf("flat image took %d bits (> %d)", bits, BlocksPerIm*8)
	}
}

func TestJPEGDCTEnergyLocalization(t *testing.T) {
	// A flat block through the reference pipeline must quantize to DC-only.
	img := make([]int32, ImagePixels)
	for i := range img {
		img[i] = 200
	}
	stream, bits, err := JPEGReference(img)
	if err != nil {
		t.Fatal(err)
	}
	_ = stream
	if bits == 0 {
		t.Fatal("no output")
	}
}

func TestGenerators(t *testing.T) {
	bits := GenBits(1000, 5)
	ones := 0
	for _, b := range bits {
		if b != 0 && b != 1 {
			t.Fatalf("non-bit value %d", b)
		}
		ones += int(b)
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("bit bias: %d ones of 1000", ones)
	}
	img := GenImage(5)
	for i, v := range img {
		if v < 0 || v > 255 {
			t.Fatalf("pixel %d out of range: %d", i, v)
		}
	}
	// Determinism.
	img2 := GenImage(5)
	for i := range img {
		if img[i] != img2[i] {
			t.Fatal("GenImage not deterministic")
		}
	}
	if GenImage(6)[0] == img[0] && GenImage(6)[1] == img[1] && GenImage(6)[2] == img[2] {
		t.Log("warning: different seeds produced identical prefix")
	}
}

func TestSourcesLowerAndFlatten(t *testing.T) {
	src, err := JPEGSource()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, src, entry string }{
		{"ofdm", OFDMSource(), OFDMEntry},
		{"jpeg", src, JPEGEntry},
	} {
		prog, err := lower.LowerSource(tc.src)
		if err != nil {
			t.Fatalf("%s: lower: %v", tc.name, err)
		}
		flat, err := lower.Flatten(prog, tc.entry)
		if err != nil {
			t.Fatalf("%s: flatten: %v", tc.name, err)
		}
		fp := ir.NewProgram()
		fp.Globals = prog.Globals
		if err := fp.AddFunc(flat); err != nil {
			t.Fatal(err)
		}
		if err := fp.Validate(); err != nil {
			t.Fatalf("%s: flattened invalid: %v", tc.name, err)
		}
		t.Logf("%s: %d basic blocks after flattening", tc.name, len(flat.Blocks))
		if len(flat.Blocks) < 10 {
			t.Errorf("%s: suspiciously few blocks (%d)", tc.name, len(flat.Blocks))
		}
	}
}

// validatePrefixFree checks that no code is a prefix of another and that
// every length is within [1, maxLen].
func validatePrefixFree(codes map[int]Code, maxLen int) error {
	type entry struct {
		sym  int
		code Code
	}
	var all []entry
	for s, c := range codes {
		if c.Len < 1 || c.Len > maxLen {
			return fmt.Errorf("apps: symbol %d has length %d outside [1,%d]", s, c.Len, maxLen)
		}
		if c.Len < 32 && c.Bits>>uint(c.Len) != 0 {
			return fmt.Errorf("apps: symbol %d code wider than its length", s)
		}
		all = append(all, entry{s, c})
	}
	for i := range all {
		for j := range all {
			if i == j {
				continue
			}
			a, b := all[i].code, all[j].code
			if a.Len <= b.Len && b.Bits>>uint(b.Len-a.Len) == a.Bits {
				return fmt.Errorf("apps: code of %d is a prefix of %d", all[i].sym, all[j].sym)
			}
		}
	}
	return nil
}
