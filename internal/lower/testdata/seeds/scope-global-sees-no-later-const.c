int A[N];
const int N = 4;
void f() {}