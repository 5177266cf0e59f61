package apps

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// cArray is a global array of a benchmark source and its element count.
type cArray struct {
	name string
	n    int
}

// TestGCCOracle builds each committed benchmark source with gcc, a compiler
// that shares nothing with this repository's front end and interpreter, and
// checks what it computes against the Go reference over several input
// seeds. The sources are plain C99 over int, with two's-complement
// wraparound (-fwrapv) standing in for the mini-C's int32 arithmetic.
func TestGCCOracle(t *testing.T) {
	gcc, err := exec.LookPath("gcc")
	if err != nil {
		t.Skipf("no C compiler on PATH, so the benchmark sources go unchecked by gcc: %v", err)
	}
	t.Run("ofdm", func(t *testing.T) {
		bin := gccBuild(t, gcc, "src/ofdm.c", OFDMEntry, cArray{OFDMBitsArray, OFDMTotalBits},
			cArray{OFDMOutIArray, OFDMSymbols * SymbolSamples}, cArray{OFDMOutQArray, OFDMSymbols * SymbolSamples})
		for seed := uint32(1); seed <= 4; seed++ {
			bits := GenBits(OFDMTotalBits, seed)
			outI, outQ, err := OFDMReference(bits)
			if err != nil {
				t.Fatal(err)
			}
			gccCheck(t, bin, seed, bits, append(outI, outQ...))
		}
	})
	t.Run("jpeg", func(t *testing.T) {
		bin := gccBuild(t, gcc, "src/jpeg.c", JPEGEntry, cArray{JPEGImageArray, ImagePixels},
			cArray{JPEGStateArray, 1}, cArray{JPEGStreamArray, BitstreamWords})
		for seed := uint32(1); seed <= 3; seed++ {
			img := GenImage(seed)
			stream, nbits, err := JPEGReference(img)
			if err != nil {
				t.Fatal(err)
			}
			gccCheck(t, bin, seed, img, append([]int32{nbits}, stream...))
		}
	})
}

// gccBuild compiles the committed source file together with a main that
// reads in's elements from stdin, calls entry, and prints every element of
// outs, one decimal per line. It returns the executable's path.
func gccBuild(t *testing.T, gcc, file, entry string, in cArray, outs ...cArray) string {
	t.Helper()
	var m strings.Builder
	m.WriteString("#include <stdio.h>\n")
	for _, a := range append([]cArray{in}, outs...) {
		fmt.Fprintf(&m, "extern int %s[];\n", a.name)
	}
	fmt.Fprintf(&m, "void %s(void);\n\nint main(void) {\n    int i;\n", entry)
	fmt.Fprintf(&m, "    for (i = 0; i < %d; i++)\n        if (scanf(\"%%d\", &%s[i]) != 1) return 1;\n", in.n, in.name)
	fmt.Fprintf(&m, "    %s();\n", entry)
	for _, a := range outs {
		fmt.Fprintf(&m, "    for (i = 0; i < %d; i++) printf(\"%%d\\n\", %s[i]);\n", a.n, a.name)
	}
	m.WriteString("    return 0;\n}\n")

	dir := t.TempDir()
	mainC := filepath.Join(dir, "main.c")
	if err := os.WriteFile(mainC, []byte(m.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, entry)
	if out, err := exec.Command(gcc, "-std=c99", "-fwrapv", "-o", bin, file, mainC).CombinedOutput(); err != nil {
		t.Fatalf("gcc %s: %v\n%s", file, err, out)
	}
	return bin
}

// gccCheck runs bin on input and compares the printed values with want.
func gccCheck(t *testing.T, bin string, seed uint32, input, want []int32) {
	t.Helper()
	var stdin strings.Builder
	for _, v := range input {
		stdin.WriteString(strconv.Itoa(int(v)))
		stdin.WriteByte('\n')
	}
	cmd := exec.Command(bin)
	cmd.Stdin = strings.NewReader(stdin.String())
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	fields := strings.Fields(string(out))
	if len(fields) != len(want) {
		t.Fatalf("seed %d: gcc build printed %d values, want %d", seed, len(fields), len(want))
	}
	for i, f := range fields {
		got, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			t.Fatalf("seed %d: value %d: %v", seed, i, err)
		}
		if int32(got) != want[i] {
			t.Fatalf("seed %d: value %d: gcc build gives %d, reference %d", seed, i, got, want[i])
		}
	}
}
