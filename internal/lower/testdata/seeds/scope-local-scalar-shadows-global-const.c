const int N = 4;
int f() { int N = 1; const int K = N + 1; return K; }