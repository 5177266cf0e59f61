const int X = 7 / (3 - 3);
int f() { return X; }