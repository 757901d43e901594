// Listing 1 of the paper: intra-object overflow from `vulnerable` into
// `sensitive`. Instrumented runs trap at i == 12.
struct S {
	char vulnerable[12];
	char sensitive[12];
};
char *gv;
int main() {
	struct S *s = (struct S*)malloc(sizeof(struct S));
	gv = s->vulnerable;
	char *p = gv;
	int i;
	for (i = 0; i <= 12; i = i + 1) { p[i] = 'A'; }
	free(s);
	return 0;
}
