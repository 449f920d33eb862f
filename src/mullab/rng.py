"""Portable deterministic pseudo-random generator.

Dataset splits, label-subset draws and ensemble subsampling must reproduce
bit-for-bit across machines and implementations, so none of them go through
``random`` or numpy's generators.  Instead everything is driven by
xoshiro256** seeded through splitmix64, both fully specified here:

splitmix64 (one step, all arithmetic mod 2**64):
    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)

xoshiro256** (state s0..s3, all arithmetic mod 2**64):
    out = rotl64(s1 * 5, 7) * 9
    t = s1 << 17
    s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
    s2 ^= t;   s3 = rotl64(s3, 45)

Seeding: the four state words are four consecutive splitmix64 outputs of the
user seed.  Bounded draws use rejection sampling (no modulo bias), floats use
the top 53 bits, and shuffles are backward Fisher-Yates.  Any implementation
following this page reproduces identical splits from identical seeds.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """splitmix64 finalizer (without the gamma increment)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Minimal splitmix64 stream, used only to expand seeds."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)


class Xoshiro256:
    """xoshiro256** stream seeded via splitmix64.

    Accepts any Python int as seed (reduced mod 2**64, negatives allowed).
    """

    def __init__(self, seed: int):
        sm = SplitMix64(seed)
        self._s = [sm.next_u64() for _ in range(4)]
        if not any(self._s):
            # all-zero state is the one forbidden fixpoint
            self._s[0] = _GAMMA

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & _MASK64
        out = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64  # rotl 7
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s = [s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & _MASK64]  # rotl 45
        return out

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def uniform(self) -> float:
        """Float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def shuffle(self, items: list) -> None:
        """In-place backward Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        if k > n // 2:
            pool = list(range(n))
            self.shuffle(pool)
            return pool[:k]
        chosen: list[int] = []
        seen: set[int] = set()
        limit = (1 << 64) - (1 << 64) % max(n, 1)  # below(n)'s, inlined
        next_u64 = self.next_u64
        while len(chosen) < k:
            r = next_u64()
            if r < limit:
                j = r % n
                if j not in seen:
                    seen.add(j)
                    chosen.append(j)
        return chosen


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic child seed for a numbered subtask (ensemble member,
    pruning fold, ...).  Mixing is order-sensitive: derive_seed(s, 1, 2)
    differs from derive_seed(s, 2, 1)."""
    state = seed & _MASK64
    for part in path:
        state = _mix64(state ^ _mix64((part + _GAMMA) & _MASK64))
    return state
