int a[4];
int b[a];
void f() {}