const int N = 4;
int f() { const int N = 8; return N; }
int A[N];
const int M = N;
int g() { return M; }