int G[1] = {0 || 1/0};
int f() { return G[0]; }