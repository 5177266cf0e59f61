int G[1] = {(-2147483647-1) / -1};
int f() { return G[0]; }