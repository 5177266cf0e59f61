
// Baseline JPEG encoder (luminance only, fixed point, int32).
int IMAGE[65536];
int BITSTREAM[32768];
int NBITS[1];
int PREVDC[1];

int BLK[64];
int TMP[64];
int COEF[64];

int DCTM[64] = {1448, 1448, 1448, 1448, 1448, 1448, 1448, 1448, 2009, 1703, 1138, 400, -400, -1138, -1703, -2009, 1892, 784, -784, -1892, -1892, -784, 784, 1892, 1703, -400, -2009, -1138, 1138, 2009, 400, -1703, 1448, -1448, -1448, 1448, 1448, -1448, -1448, 1448, 1138, -2009, 400, 1703, -1703, -400, 2009, -1138, 784, -1892, 1892, -784, -784, 1892, -1892, 784, 400, -1138, 1703, -2009, 2009, -1703, 1138, -400};
int QRECIP[64] = {4096, 5957, 6553, 4096, 2730, 1638, 1285, 1074, 5461, 5461, 4681, 3449, 2520, 1129, 1092, 1191, 4681, 5041, 4096, 2730, 1638, 1149, 949, 1170, 4681, 3855, 2978, 2259, 1285, 753, 819, 1057, 3640, 2978, 1771, 1170, 963, 601, 636, 851, 2730, 1872, 1191, 1024, 809, 630, 579, 712, 1337, 1024, 840, 753, 636, 541, 546, 648, 910, 712, 689, 668, 585, 655, 636, 661};
int ZZ[64] = {0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};
int DCCODE[12] = {0, 2, 3, 4, 5, 6, 14, 30, 62, 126, 254, 510};
int DCLEN[12] = {2, 3, 3, 3, 3, 3, 4, 5, 6, 7, 8, 9};
int ACCODE[256] = {2, 0, 3, 8, 9, 28, 29, 74, 75, 76, 77, 0, 0, 0, 0, 0, 0, 10, 11, 30, 31, 78, 79, 196, 197, 198, 199, 0, 0, 0, 0, 0, 0, 12, 32, 80, 81, 82, 200, 201, 202, 454, 455, 0, 0, 0, 0, 0, 0, 13, 33, 83, 84, 203, 204, 205, 456, 457, 458, 0, 0, 0, 0, 0, 0, 34, 85, 86, 206, 207, 459, 460, 461, 462, 978, 0, 0, 0, 0, 0, 0, 35, 87, 208, 209, 210, 463, 464, 465, 979, 980, 0, 0, 0, 0, 0, 0, 36, 88, 211, 212, 466, 467, 468, 981, 982, 983, 0, 0, 0, 0, 0, 0, 89, 90, 213, 214, 469, 470, 984, 985, 986, 987, 0, 0, 0, 0, 0, 0, 91, 215, 216, 471, 472, 473, 988, 989, 990, 991, 0, 0, 0, 0, 0, 0, 92, 217, 218, 474, 475, 992, 993, 994, 995, 2032, 0, 0, 0, 0, 0, 0, 93, 219, 220, 476, 477, 996, 997, 998, 999, 2033, 0, 0, 0, 0, 0, 0, 94, 221, 478, 479, 480, 1000, 1001, 1002, 2034, 2035, 0, 0, 0, 0, 0, 0, 95, 222, 481, 482, 1003, 1004, 1005, 1006, 2036, 2037, 0, 0, 0, 0, 0, 0, 96, 223, 483, 484, 1007, 1008, 1009, 2038, 2039, 2040, 0, 0, 0, 0, 0, 0, 97, 224, 485, 486, 1010, 1011, 1012, 2041, 2042, 2043, 0, 0, 0, 0, 0, 2044, 225, 226, 487, 488, 1013, 1014, 1015, 2045, 2046, 2047, 0, 0, 0, 0, 0};
int ACLEN[256] = {4, 3, 4, 5, 5, 6, 6, 7, 7, 7, 7, 0, 0, 0, 0, 0, 0, 5, 5, 6, 6, 7, 7, 8, 8, 8, 8, 0, 0, 0, 0, 0, 0, 5, 6, 7, 7, 7, 8, 8, 8, 9, 9, 0, 0, 0, 0, 0, 0, 5, 6, 7, 7, 8, 8, 8, 9, 9, 9, 0, 0, 0, 0, 0, 0, 6, 7, 7, 8, 8, 9, 9, 9, 9, 10, 0, 0, 0, 0, 0, 0, 6, 7, 8, 8, 8, 9, 9, 9, 10, 10, 0, 0, 0, 0, 0, 0, 6, 7, 8, 8, 9, 9, 9, 10, 10, 10, 0, 0, 0, 0, 0, 0, 7, 7, 8, 8, 9, 9, 10, 10, 10, 10, 0, 0, 0, 0, 0, 0, 7, 8, 8, 9, 9, 9, 10, 10, 10, 10, 0, 0, 0, 0, 0, 0, 7, 8, 8, 9, 9, 10, 10, 10, 10, 11, 0, 0, 0, 0, 0, 0, 7, 8, 8, 9, 9, 10, 10, 10, 10, 11, 0, 0, 0, 0, 0, 0, 7, 8, 9, 9, 9, 10, 10, 10, 11, 11, 0, 0, 0, 0, 0, 0, 7, 8, 9, 9, 10, 10, 10, 10, 11, 11, 0, 0, 0, 0, 0, 0, 7, 8, 9, 9, 10, 10, 10, 11, 11, 11, 0, 0, 0, 0, 0, 0, 7, 8, 9, 9, 10, 10, 10, 11, 11, 11, 0, 0, 0, 0, 0, 11, 8, 8, 9, 9, 10, 10, 10, 11, 11, 11, 0, 0, 0, 0, 0};

// put_bits appends the low len bits of code to the stream, MSB first.
void put_bits(int code, int len) {
    int pos = NBITS[0];
    int w = pos >> 5;
    int off = pos & 31;
    int rem = 32 - off;
    if (len <= rem) {
        BITSTREAM[w] = BITSTREAM[w] | (code << (rem - len));
    } else {
        int hi = len - rem;
        BITSTREAM[w] = BITSTREAM[w] | (code >> hi);
        BITSTREAM[w + 1] = BITSTREAM[w + 1] | (code << (32 - hi));
    }
    NBITS[0] = pos + len;
}

// bitsize returns the JPEG size category of v (bits of |v|).
int bitsize(int v) {
    int a = v;
    int s = 0;
    if (a < 0) { a = -a; }
    while (a > 0) {
        a >>= 1;
        s++;
    }
    return s;
}

void encode_block(int bx, int by) {
    int i;
    int j;
    int k;
    // Load and level-shift the block.
    for (i = 0; i < 8; i++) {
        for (j = 0; j < 8; j++) {
            BLK[i * 8 + j] = IMAGE[(by * 8 + i) * 256 + bx * 8 + j] - 128;
        }
    }
    // Row pass: TMP = DCTM x BLK, inner product fully unrolled as the DSP
    // kernels the methodology targets are written (a wide multiply-add
    // tree in a single basic block).
    for (i = 0; i < 8; i++) {
        int r = i * 8;
        for (j = 0; j < 8; j++) {
            int acc = ((DCTM[r] * BLK[j] + DCTM[r + 1] * BLK[8 + j])
                     + (DCTM[r + 2] * BLK[16 + j] + DCTM[r + 3] * BLK[24 + j]))
                    + ((DCTM[r + 4] * BLK[32 + j] + DCTM[r + 5] * BLK[40 + j])
                     + (DCTM[r + 6] * BLK[48 + j] + DCTM[r + 7] * BLK[56 + j]));
            TMP[r + j] = acc >> 12;
        }
    }
    // Column pass: COEF = TMP x DCTM', same unrolled structure.
    for (i = 0; i < 8; i++) {
        int r = i * 8;
        for (j = 0; j < 8; j++) {
            int c = j * 8;
            int acc = ((TMP[r] * DCTM[c] + TMP[r + 1] * DCTM[c + 1])
                     + (TMP[r + 2] * DCTM[c + 2] + TMP[r + 3] * DCTM[c + 3]))
                    + ((TMP[r + 4] * DCTM[c + 4] + TMP[r + 5] * DCTM[c + 5])
                     + (TMP[r + 6] * DCTM[c + 6] + TMP[r + 7] * DCTM[c + 7]));
            COEF[r + j] = acc >> 12;
        }
    }
    // Quantize (reciprocal multiply, round-half-up) in zig-zag order.
    for (i = 0; i < 64; i++) {
        int v = COEF[ZZ[i]];
        int neg = 0;
        int q;
        if (v < 0) {
            neg = 1;
            v = -v;
        }
        q = (v * QRECIP[ZZ[i]] + 32768) >> 16;
        if (neg == 1) { q = -q; }
        BLK[i] = q;
    }
    // DC: differential, category + amplitude.
    int dc = BLK[0];
    int diff = dc - PREVDC[0];
    PREVDC[0] = dc;
    int sz = bitsize(diff);
    put_bits(DCCODE[sz], DCLEN[sz]);
    if (sz > 0) {
        int amp = diff;
        if (diff < 0) { amp = diff + (1 << sz) - 1; }
        amp &= (1 << sz) - 1;
        put_bits(amp, sz);
    }
    // AC: run-length of zeros, ZRL for runs > 15, EOB for the tail.
    int run = 0;
    for (i = 1; i < 64; i++) {
        int v = BLK[i];
        if (v == 0) {
            run++;
        } else {
            while (run > 15) {
                put_bits(ACCODE[240], ACLEN[240]);
                run -= 16;
            }
            int s2 = bitsize(v);
            int sym = run * 16 + s2;
            put_bits(ACCODE[sym], ACLEN[sym]);
            int amp = v;
            if (v < 0) { amp = v + (1 << s2) - 1; }
            amp &= (1 << s2) - 1;
            put_bits(amp, s2);
            run = 0;
        }
    }
    if (run > 0) {
        put_bits(ACCODE[0], ACLEN[0]);
    }
}

void jpeg_encode() {
    int bx;
    int by;
    int i;
    NBITS[0] = 0;
    PREVDC[0] = 0;
    for (i = 0; i < 32768; i++) { BITSTREAM[i] = 0; }
    for (by = 0; by < 32; by++) {
        for (bx = 0; bx < 32; bx++) {
            encode_block(bx, by);
        }
    }
}
