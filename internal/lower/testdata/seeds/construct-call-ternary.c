int g(int x) { return x > 0 ? x : -x; }
int f() { return g(-4) + g(4); }