const int X = 1 ? 2 : 1/0;
int f() { return X; }