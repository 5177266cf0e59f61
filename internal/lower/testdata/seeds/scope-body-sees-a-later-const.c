int f() { int a[N]; return N; }
const int N = 4;