int G[1] = {1 && 2};
int f() { return G[0]; }