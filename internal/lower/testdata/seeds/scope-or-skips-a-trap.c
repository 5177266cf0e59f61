int G[2] = {1 || 1/0, 0 || 5};
int f() { return G[0]; }