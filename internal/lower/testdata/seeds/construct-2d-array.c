int M[4][4];
void init() {
    int i; int j;
    for (i = 0; i < 4; i++) { for (j = 0; j < 4; j++) { M[i][j] = i ^ j; } }
}
int f() { init(); return M[3][2]; }