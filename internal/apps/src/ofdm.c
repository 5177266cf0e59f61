
// IEEE 802.11a OFDM transmitter front-end (fixed point, int32).
const int NSYM = 6;

int BITS[1152];
int OUT_I[480];
int OUT_Q[480];

int FR[64];
int FI[64];
int XR[64];
int XI[64];

int QLUT[4] = {-6144, -2048, 6144, 2048};
int DBIN[48] = {38, 39, 40, 41, 42, 44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 58, 59, 60, 61, 62, 63, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 22, 23, 24, 25, 26};
int PBIN[4] = {43, 57, 7, 21};
int BRV[64] = {0, 32, 16, 48, 8, 40, 24, 56, 4, 36, 20, 52, 12, 44, 28, 60, 2, 34, 18, 50, 10, 42, 26, 58, 6, 38, 22, 54, 14, 46, 30, 62, 1, 33, 17, 49, 9, 41, 25, 57, 5, 37, 21, 53, 13, 45, 29, 61, 3, 35, 19, 51, 11, 43, 27, 59, 7, 39, 23, 55, 15, 47, 31, 63};
int TWR[32] = {16384, 16305, 16069, 15679, 15137, 14449, 13623, 12665, 11585, 10394, 9102, 7723, 6270, 4756, 3196, 1606, 0, -1606, -3196, -4756, -6270, -7723, -9102, -10394, -11585, -12665, -13623, -14449, -15137, -15679, -16069, -16305};
int TWI[32] = {0, 1606, 3196, 4756, 6270, 7723, 9102, 10394, 11585, 12665, 13623, 14449, 15137, 15679, 16069, 16305, 16384, 16305, 16069, 15679, 15137, 14449, 13623, 12665, 11585, 10394, 9102, 7723, 6270, 4756, 3196, 1606};

// qam_map fills the frequency-domain symbol: 48 data subcarriers from
// Gray-coded 16-QAM plus 4 BPSK pilots; DC and guard bins stay zero.
void qam_map(int sym) {
    int k;
    int c;
    for (k = 0; k < 64; k++) {
        FR[k] = 0;
        FI[k] = 0;
    }
    for (c = 0; c < 48; c++) {
        int base = sym * 192 + c * 4;
        int bi = BITS[base] + 2 * BITS[base + 1];
        int bq = BITS[base + 2] + 2 * BITS[base + 3];
        int bin = DBIN[c];
        FR[bin] = QLUT[bi];
        FI[bin] = QLUT[bq];
    }
    for (k = 0; k < 4; k++) {
        FR[PBIN[k]] = 4096;
        FI[PBIN[k]] = 0;
    }
}

// ifft64 is the radix-2 decimation-in-time IFFT with Q14 twiddles and a
// >>1 scaling per stage (exact 1/64 normalization over six stages).
void ifft64() {
    int i;
    int s;
    for (i = 0; i < 64; i++) {
        int r = BRV[i];
        XR[i] = FR[r];
        XI[i] = FI[r];
    }
    for (s = 1; s <= 6; s++) {
        int m = 1 << s;
        int h = m >> 1;
        int step = 64 >> s;
        int k;
        for (k = 0; k < 64; k += m) {
            int j;
            for (j = 0; j < h; j++) {
                int w = j * step;
                int wr = TWR[w];
                int wi = TWI[w];
                int br = XR[k + j + h];
                int bi = XI[k + j + h];
                int tr = (wr * br - wi * bi) >> 14;
                int ti = (wr * bi + wi * br) >> 14;
                int ar = XR[k + j];
                int ai = XI[k + j];
                XR[k + j] = (ar + tr) >> 1;
                XI[k + j] = (ai + ti) >> 1;
                XR[k + j + h] = (ar - tr) >> 1;
                XI[k + j + h] = (ai - ti) >> 1;
            }
        }
    }
}

// add_cp emits the cyclic prefix (last 16 time samples) then the symbol.
void add_cp(int sym) {
    int i;
    int base = sym * 80;
    for (i = 0; i < 16; i++) {
        OUT_I[base + i] = XR[48 + i];
        OUT_Q[base + i] = XI[48 + i];
    }
    for (i = 0; i < 64; i++) {
        OUT_I[base + 16 + i] = XR[i];
        OUT_Q[base + 16 + i] = XI[i];
    }
}

void ofdm_tx() {
    int sym;
    for (sym = 0; sym < NSYM; sym++) {
        qam_map(sym);
        ifft64();
        add_cp(sym);
    }
}
