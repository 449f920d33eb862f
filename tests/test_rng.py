from mullab.rng import SplitMix64, Xoshiro256, derive_seed

MASK = (1 << 64) - 1


def reference_splitmix64(seed, count):
    """Transcribed from the documented recurrence, independent of rng.py."""
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def reference_xoshiro(seed, count):
    s = reference_splitmix64(seed, 4)

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & MASK

    out = []
    for _ in range(count):
        out.append((rotl((s[1] * 5) & MASK, 7) * 9) & MASK)
        t = (s[1] << 17) & MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = rotl(s[3], 45)
    return out


def test_splitmix_matches_documented_recurrence():
    sm = SplitMix64(42)
    assert [sm.next_u64() for _ in range(8)] == reference_splitmix64(42, 8)


def test_xoshiro_matches_documented_recurrence():
    for seed in (0, 1, 123456789, 2**64 - 1):
        gen = Xoshiro256(seed)
        assert [gen.next_u64() for _ in range(16)] == reference_xoshiro(seed, 16)


def test_determinism_and_seed_sensitivity():
    a = [Xoshiro256(5).next_u64() for _ in range(4)]
    b = [Xoshiro256(5).next_u64() for _ in range(4)]
    c = [Xoshiro256(6).next_u64() for _ in range(4)]
    assert a == b
    assert a != c


def test_below_bounds_and_coverage():
    gen = Xoshiro256(1)
    seen = set()
    for _ in range(500):
        v = gen.below(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    assert Xoshiro256(1).below(1) == 0


def test_below_rejects_nonpositive():
    import pytest

    with pytest.raises(ValueError):
        Xoshiro256(1).below(0)


def test_uniform_range():
    gen = Xoshiro256(3)
    values = [gen.uniform() for _ in range(200)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert max(values) > 0.5 and min(values) < 0.5


def test_shuffle_is_deterministic_permutation():
    items = list(range(50))
    a, b = items[:], items[:]
    Xoshiro256(9).shuffle(a)
    Xoshiro256(9).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


def test_sample_distinct_and_complete():
    gen = Xoshiro256(4)
    got = gen.sample(10, 4)
    assert len(got) == len(set(got)) == 4
    assert all(0 <= v < 10 for v in got)
    assert sorted(Xoshiro256(4).sample(6, 6)) == list(range(6))


def reference_samples(seed, draws):
    """``sample(n, k)`` for each ``(n, k)`` in ``draws`` from one stream, by
    the documented rejection rule, then the stream's next word."""
    stream = iter(reference_xoshiro(seed, 4096))

    def below(n):
        limit = (1 << 64) - (1 << 64) % n
        return next(r % n for r in stream if r < limit)

    out = []
    for n, k in draws:
        if k > n // 2:
            pool = list(range(n))
            for i in range(n - 1, 0, -1):
                j = below(i + 1)
                pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[:k])
            continue
        chosen = []
        while len(chosen) < k:
            j = below(n)
            if j not in chosen:
                chosen.append(j)
        out.append(chosen)
    return out, next(stream)


def test_sample_follows_documented_rejection_draws():
    # 2^63 + 5 rejects about half the words; 72 choose 9 is random-t's draw
    draws = [(72, 9), (0, 0), (1, 0), (1, 1), (10, 4), (6, 6), (3, 1),
             (2**63 + 5, 3), (5, 2), (1000, 12)]
    for seed in (0, 7, 2**64 - 1):
        gen = Xoshiro256(seed)
        got = [gen.sample(n, k) for n, k in draws]
        assert (got, gen.next_u64()) == reference_samples(seed, draws)


def test_derive_seed_is_order_sensitive():
    s = 99
    assert derive_seed(s, 1, 2) != derive_seed(s, 2, 1)
    assert derive_seed(s, 1) != derive_seed(s, 2)
    assert derive_seed(s, 1) == derive_seed(s, 1)
    assert derive_seed(s) == derive_seed(s)
