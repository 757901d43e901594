// Exercises switch/do-while over a checked buffer.
int main() {
	char buf[32];
	memset(buf, 0, 32);
	int i = 0;
	do {
		switch (i % 3) {
		case 0: buf[i] = 'x'; break;
		case 1: buf[i] = 'y'; break;
		default: buf[i] = 'z';
		}
		i = i + 1;
	} while (i < 32);
	long sum = 0;
	for (i = 0; i < 32; i = i + 1) { sum = sum + buf[i]; }
	print(sum);
	return 0;
}
