const int X = 1 ? 2 : zz;
int f() { return X; }