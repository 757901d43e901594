// Call-heavy kernel: naive recursion.
long fib(long n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { print(fib(18)); return 0; }
