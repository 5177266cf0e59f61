int f(int a, int b) {
    int r = 0;
    while (a > 0) { r += b; a--; }
    if (r > 100 && b < 50 || a == 0) { r = r % 7; }
    return r;
}