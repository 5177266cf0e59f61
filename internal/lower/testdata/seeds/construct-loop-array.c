const int N = 8;
int A[N];
int f(int n) {
    int i;
    int s = 0;
    for (i = 0; i < n; i++) { A[i] = i * 3; s += A[i]; }
    return s;
}