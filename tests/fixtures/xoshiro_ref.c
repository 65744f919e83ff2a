/* Reference outputs of splitmix64-seeded xoshiro256**, for tests/test_rng.py.
 *
 * The two generators are transcribed from the public-domain reference code
 * by David Blackman and Sebastiano Vigna (https://prng.di.unimi.it/:
 * splitmix64.c and xoshiro256starstar.c, including its jump() function).
 * sparselab seeds a generator with seed s by calling splitmix64 four times
 * from x = s and taking the outputs as s[0..3].
 *
 *     gcc -O2 -std=c99 -o xoshiro_ref xoshiro_ref.c
 *     ./xoshiro_ref > rng_reference.json
 *
 * The JSON holds, per seed, the first FIRST outputs and the outputs at
 * indices [AROUND, AROUND + WINDOW); the first few outputs of sub-stream
 * seeds s + offset; and the state that jump() reaches from seed 1.
 */
#include <inttypes.h>
#include <stdio.h>

#define FIRST 1000
#define AROUND 99990
#define WINDOW 20
#define STREAM_OUTPUTS 8

/* splitmix64.c */
static uint64_t x;

static uint64_t splitmix64_next(void) {
	uint64_t z = (x += 0x9e3779b97f4a7c15);
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
	return z ^ (z >> 31);
}

/* xoshiro256starstar.c */
static inline uint64_t rotl(const uint64_t x, int k) {
	return (x << k) | (x >> (64 - k));
}

static uint64_t s[4];

static uint64_t next(void) {
	const uint64_t result = rotl(s[1] * 5, 7) * 9;
	const uint64_t t = s[1] << 17;
	s[2] ^= s[0];
	s[3] ^= s[1];
	s[1] ^= s[2];
	s[0] ^= s[3];
	s[2] ^= t;
	s[3] = rotl(s[3], 45);
	return result;
}

/* Equivalent to 2^128 calls to next(). */
static void jump(void) {
	static const uint64_t JUMP[] = { 0x180ec6d33cfd0aba, 0xd5a61266f0c9392c,
		0xa9582618e03fc9aa, 0x39abdc4529b1661c };
	uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
	for (int i = 0; i < (int)(sizeof JUMP / sizeof *JUMP); i++)
		for (int b = 0; b < 64; b++) {
			if (JUMP[i] & UINT64_C(1) << b) {
				s0 ^= s[0];
				s1 ^= s[1];
				s2 ^= s[2];
				s3 ^= s[3];
			}
			next();
		}
	s[0] = s0;
	s[1] = s1;
	s[2] = s2;
	s[3] = s3;
}

static void seed(uint64_t value) {
	x = value;
	for (int i = 0; i < 4; i++)
		s[i] = splitmix64_next();
}

static void print_state(void) {
	printf("[%" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "]", s[0], s[1], s[2], s[3]);
}

int main(void) {
	const uint64_t seeds[] = { 0, 1, UINT64_MAX };
	const int n_seeds = sizeof seeds / sizeof *seeds;
	printf("{\n \"first\": %d,\n \"around\": %d,\n \"seeds\": [\n", FIRST, AROUND);
	for (int i = 0; i < n_seeds; i++) {
		seed(seeds[i]);
		printf("  {\"seed\": %" PRIu64 ", \"state\": ", seeds[i]);
		print_state();
		printf(",\n   \"first_outputs\": [");
		for (int k = 0; k < FIRST; k++)
			printf("%s%" PRIu64, k ? ", " : "", next());
		for (int k = FIRST; k < AROUND; k++)
			next();
		printf("],\n   \"around_outputs\": [");
		for (int k = 0; k < WINDOW; k++)
			printf("%s%" PRIu64, k ? ", " : "", next());
		printf("]}%s\n", i + 1 < n_seeds ? "," : "");
	}
	printf(" ],\n \"streams\": [\n");
	for (int i = 0; i < n_seeds; i++)
		for (uint64_t offset = 1; offset <= 6; offset++) {
			seed(seeds[i] + offset);
			printf("  {\"seed\": %" PRIu64 ", \"offset\": %" PRIu64 ", \"outputs\": [",
			       seeds[i], offset);
			for (int k = 0; k < STREAM_OUTPUTS; k++)
				printf("%s%" PRIu64, k ? ", " : "", next());
			printf("]}%s\n", i + 1 < n_seeds || offset < 6 ? "," : "");
		}
	seed(1);
	jump();
	printf(" ],\n \"jump_2_128_from_seed_1\": ");
	print_state();
	printf("\n}\n");
	return 0;
}
