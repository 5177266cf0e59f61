package apps

import (
	_ "embed"
	"fmt"
)

// OFDMEntry is the entry function of the OFDM transmitter source.
const OFDMEntry = "ofdm_tx"

// OFDM global array names (host-visible I/O).
const (
	OFDMBitsArray = "BITS"
	OFDMOutIArray = "OUT_I"
	OFDMOutQArray = "OUT_Q"
)

// OFDMSource returns the mini-C implementation of the 802.11a OFDM
// transmitter front-end: 16-QAM subcarrier mapping with pilots, 64-point
// radix-2 DIT IFFT in Q-format fixed point with per-stage scaling, and
// cyclic-prefix insertion — the QAM + IFFT + cyclic prefix chain the paper
// evaluates. The host writes OFDMTotalBits 0/1 values into BITS and reads
// OFDMSymbols×SymbolSamples Q-format samples from OUT_I/OUT_Q.
func OFDMSource() string { return ofdmSrc }

//go:embed src/ofdm.c
var ofdmSrc string

// OFDMReference is the bit-exact Go implementation of OFDMSource: it
// consumes OFDMTotalBits 0/1 values and returns the I and Q sample streams
// (OFDMSymbols×SymbolSamples each).
func OFDMReference(bits []int32) (outI, outQ []int32, err error) {
	if len(bits) != OFDMTotalBits {
		return nil, nil, fmt.Errorf("apps: OFDM needs %d bits, got %d", OFDMTotalBits, len(bits))
	}
	qlut := table(ofdmSrc, "QLUT")
	dbin := table(ofdmSrc, "DBIN")
	pbin := table(ofdmSrc, "PBIN")
	brv := table(ofdmSrc, "BRV")
	twr, twi := table(ofdmSrc, "TWR"), table(ofdmSrc, "TWI")

	outI = make([]int32, OFDMSymbols*SymbolSamples)
	outQ = make([]int32, OFDMSymbols*SymbolSamples)
	var fr, fi, xr, xi [FFTSize]int32

	for sym := 0; sym < OFDMSymbols; sym++ {
		// qam_map
		for k := range fr {
			fr[k], fi[k] = 0, 0
		}
		for c := 0; c < DataCarriers; c++ {
			base := sym*BitsPerSymbol + c*BitsPerCarrier
			bi := bits[base] + 2*bits[base+1]
			bq := bits[base+2] + 2*bits[base+3]
			bin := dbin[c]
			fr[bin] = qlut[bi]
			fi[bin] = qlut[bq]
		}
		for k := 0; k < 4; k++ {
			fr[pbin[k]] = pilotAmp
			fi[pbin[k]] = 0
		}
		// ifft64
		for i := 0; i < FFTSize; i++ {
			r := brv[i]
			xr[i], xi[i] = fr[r], fi[r]
		}
		for s := 1; s <= 6; s++ {
			m := int32(1) << uint(s)
			h := m >> 1
			step := int32(FFTSize) >> uint(s)
			for k := int32(0); k < FFTSize; k += m {
				for j := int32(0); j < h; j++ {
					w := j * step
					wr, wi := twr[w], twi[w]
					br, bi := xr[k+j+h], xi[k+j+h]
					tr := (wr*br - wi*bi) >> twiddleQ
					ti := (wr*bi + wi*br) >> twiddleQ
					ar, ai := xr[k+j], xi[k+j]
					xr[k+j] = (ar + tr) >> 1
					xi[k+j] = (ai + ti) >> 1
					xr[k+j+h] = (ar - tr) >> 1
					xi[k+j+h] = (ai - ti) >> 1
				}
			}
		}
		// add_cp
		base := sym * SymbolSamples
		for i := 0; i < CPLen; i++ {
			outI[base+i] = xr[FFTSize-CPLen+i]
			outQ[base+i] = xi[FFTSize-CPLen+i]
		}
		for i := 0; i < FFTSize; i++ {
			outI[base+CPLen+i] = xr[i]
			outQ[base+CPLen+i] = xi[i]
		}
	}
	return outI, outQ, nil
}
