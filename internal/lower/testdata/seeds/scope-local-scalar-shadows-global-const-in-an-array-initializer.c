const int N = 4;
int f() { int N = 2; int v[2] = {N, 1}; return v[0]; }