// Heap linked-list walk over promoted pointers.
struct Node { long val; struct Node *next; };
int main() {
	struct Node *head = (struct Node*)0;
	long i;
	for (i = 0; i < 64; i = i + 1) {
		struct Node *n = (struct Node*)malloc(sizeof(struct Node));
		n->val = i; n->next = head; head = n;
	}
	long sum = 0; long r;
	for (r = 0; r < 50; r = r + 1) {
		struct Node *it = head;
		while (it != (struct Node*)0) { sum = sum + it->val; it = it->next; }
	}
	while (head != (struct Node*)0) {
		struct Node *dead = head; head = head->next; free(dead);
	}
	print(sum);
	return 0;
}
