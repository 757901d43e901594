// A clean linked-list workout: builds, sums, and frees a list. Runs
// identically in every mode; try `minicc -stats` to see the promote
// traffic.
struct Node { long val; struct Node *next; };
struct Node *head;
int main() {
	int i;
	for (i = 0; i < 100; i = i + 1) {
		struct Node *n = (struct Node*)malloc(sizeof(struct Node));
		n->val = i;
		n->next = head;
		head = n;
	}
	long sum = 0;
	struct Node *cur = head;
	while (cur != (struct Node*)0) {
		sum = sum + cur->val;
		cur = cur->next;
	}
	print(sum);
	return 0;
}
