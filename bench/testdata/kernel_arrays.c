// Array loops with a constant-index store and a bare pointer deref.
int main() {
	long buf[64]; long i; long r; long acc = 0;
	long *q = &buf[3];
	for (r = 0; r < 50; r = r + 1) {
		buf[0] = r;
		for (i = 0; i < 64; i = i + 1) { buf[i] = i * r; }
		for (i = 0; i < 64; i = i + 1) { acc = acc + buf[i]; }
		acc = acc + *q;
	}
	print(acc);
	return 0;
}
