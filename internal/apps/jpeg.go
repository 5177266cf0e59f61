package apps

import (
	_ "embed"
	"fmt"
)

// JPEGEntry is the entry function of the JPEG encoder source.
const JPEGEntry = "jpeg_encode"

// JPEG global array names (host-visible I/O).
const (
	JPEGImageArray  = "IMAGE"
	JPEGStreamArray = "BITSTREAM"
	JPEGStateArray  = "NBITS"
)

// JPEGSource returns the mini-C implementation of the baseline JPEG encoder
// the paper evaluates: per-8×8-block level shift, integer 2-D DCT (row and
// column passes against a Q12 basis matrix), division-free quantization via
// Q16 reciprocals, zig-zag scan, and DC-differential + AC run-length
// Huffman entropy coding with MSB-first bit packing. The host writes
// ImagePixels gray values (0..255) into IMAGE and reads the packed stream
// from BITSTREAM with the emitted bit count in NBITS[0].
//
// The error is always nil; the signature is kept for existing callers.
func JPEGSource() (string, error) { return jpegSrc, nil }

//go:embed src/jpeg.c
var jpegSrc string

// JPEGReference is the bit-exact Go implementation of JPEGSource. It
// consumes ImagePixels gray values and returns the packed bitstream words
// plus the number of emitted bits.
func JPEGReference(image []int32) (stream []int32, nbits int32, err error) {
	if len(image) != ImagePixels {
		return nil, 0, fmt.Errorf("apps: JPEG needs %d pixels, got %d", ImagePixels, len(image))
	}
	acCode, acLen := table(jpegSrc, "ACCODE"), table(jpegSrc, "ACLEN")
	dcCode, dcLen := table(jpegSrc, "DCCODE"), table(jpegSrc, "DCLEN")
	dctm := table(jpegSrc, "DCTM")
	qrecip := table(jpegSrc, "QRECIP")
	zigzag := table(jpegSrc, "ZZ")

	stream = make([]int32, BitstreamWords)
	var pos int32
	putBits := func(code, length int32) {
		w := pos >> 5
		off := pos & 31
		rem := 32 - off
		if length <= rem {
			stream[w] |= code << uint32(rem-length)
		} else {
			hi := length - rem
			stream[w] |= code >> uint32(hi)
			stream[w+1] |= code << uint32(32-hi)
		}
		pos += length
	}
	bitsize := func(v int32) int32 {
		a := v
		if a < 0 {
			a = -a
		}
		s := int32(0)
		for a > 0 {
			a >>= 1
			s++
		}
		return s
	}

	var blk, tmp, coef [64]int32
	prevDC := int32(0)
	nb := ImageDim / BlockDim
	for by := 0; by < nb; by++ {
		for bx := 0; bx < nb; bx++ {
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					blk[i*8+j] = image[(by*8+i)*ImageDim+bx*8+j] - 128
				}
			}
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					acc := int32(0)
					for k := 0; k < 8; k++ {
						acc += dctm[i*8+k] * blk[k*8+j]
					}
					tmp[i*8+j] = acc >> dctQ
				}
			}
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					acc := int32(0)
					for k := 0; k < 8; k++ {
						acc += tmp[i*8+k] * dctm[j*8+k]
					}
					coef[i*8+j] = acc >> dctQ
				}
			}
			for i := 0; i < 64; i++ {
				v := coef[zigzag[i]]
				neg := false
				if v < 0 {
					neg = true
					v = -v
				}
				q := (v*qrecip[zigzag[i]] + 32768) >> 16
				if neg {
					q = -q
				}
				blk[i] = q
			}
			dc := blk[0]
			diff := dc - prevDC
			prevDC = dc
			sz := bitsize(diff)
			putBits(dcCode[sz], dcLen[sz])
			if sz > 0 {
				amp := diff
				if diff < 0 {
					amp = diff + (1 << uint32(sz)) - 1
				}
				amp &= (1 << uint32(sz)) - 1
				putBits(amp, sz)
			}
			run := int32(0)
			for i := 1; i < 64; i++ {
				v := blk[i]
				if v == 0 {
					run++
					continue
				}
				for run > 15 {
					putBits(acCode[240], acLen[240])
					run -= 16
				}
				s2 := bitsize(v)
				sym := run*16 + s2
				putBits(acCode[sym], acLen[sym])
				amp := v
				if v < 0 {
					amp = v + (1 << uint32(s2)) - 1
				}
				amp &= (1 << uint32(s2)) - 1
				putBits(amp, s2)
				run = 0
			}
			if run > 0 {
				putBits(acCode[0], acLen[0])
			}
		}
	}
	return stream, pos, nil
}
