const int X = (-2147483647-1) / -1;
int f() { return X; }