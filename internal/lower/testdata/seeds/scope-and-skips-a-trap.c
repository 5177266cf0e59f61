const int X = 0 && 1/0;
int f() { return X; }