int f() { const int Q = 3; return Q; }
int B[Q];
int g() { return 0; }