"""Tests for deterministic RNG streams."""

import pytest

from repro.common.rng import RandomStream, derive_seed


def _zipf_loop(rng, n, skew):
    """The reference pick: rebuild and scan the weights on every call."""
    weights = [1.0 / (i + 1) ** skew for i in range(n)]
    total = sum(weights)
    target = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if target <= acc:
            return i
    return n - 1


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_differs_by_key(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_int_keys(self):
        assert derive_seed(1, 5) == derive_seed(1, 5)
        assert derive_seed(1, 5) != derive_seed(1, 6)


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(42, "x")
        b = RandomStream(42, "x")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_children_independent(self):
        parent = RandomStream(42)
        c1 = parent.child("one")
        c2 = parent.child("two")
        assert [c1.random() for _ in range(5)] != [c2.random() for _ in range(5)]

    def test_child_deterministic(self):
        assert (
            RandomStream(42).child("k").random()
            == RandomStream(42).child("k").random()
        )

    def test_randint_bounds(self):
        rng = RandomStream(7)
        for _ in range(100):
            assert 1 <= rng.randint(1, 3) <= 3

    def test_exp_cycles_positive_and_mean(self):
        rng = RandomStream(7)
        samples = [rng.exp_cycles(1_000) for _ in range(4_000)]
        assert all(s >= 1 for s in samples)
        mean = sum(samples) / len(samples)
        assert 900 < mean < 1100

    def test_exp_cycles_minimum(self):
        rng = RandomStream(7)
        assert all(rng.exp_cycles(1, minimum=5) >= 5 for _ in range(50))

    def test_expovariate_zero_mean(self):
        assert RandomStream(7).expovariate(0) == 0.0

    def test_lognormal_respects_bounds(self):
        rng = RandomStream(7)
        for _ in range(200):
            v = rng.lognormal_cycles(1_000, 1.0, minimum=10, maximum=100_000)
            assert 10 <= v <= 100_000

    def test_lognormal_median_ballpark(self):
        rng = RandomStream(9)
        samples = sorted(rng.lognormal_cycles(1_000, 0.5) for _ in range(4_001))
        median = samples[len(samples) // 2]
        assert 800 < median < 1250

    def test_zipf_skews_to_low_indices(self):
        rng = RandomStream(7)
        counts = [0] * 8
        for _ in range(4_000):
            counts[rng.zipf_index(8, skew=1.0)] += 1
        assert counts[0] > counts[7] * 2

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "n, skew", [(2, 1.0), (8, 0.9), (16, 1.1), (37, 0.0), (64, 2.5)]
    )
    def test_zipf_matches_the_weight_loop(self, n, skew, seed):
        """The memoized cumulative table picks what the per-call weight loop
        picks, draw for draw, and leaves the stream where the loop does."""
        fast = RandomStream(seed, "zipf")
        loop = RandomStream(seed, "zipf")
        got = [fast.zipf_index(n, skew) for _ in range(10_000)]
        assert got == [_zipf_loop(loop._rng, n, skew) for _ in range(10_000)]
        assert fast.random() == loop.random()

    def test_exp_cycles_matches_expovariate(self):
        fast, slow = RandomStream(3), RandomStream(3)
        for mean in (0, -5, 0.5, 1_000, 37_500.25):
            got = [fast.exp_cycles(mean, minimum=2) for _ in range(200)]
            assert got == [
                max(2, round(slow.expovariate(mean))) for _ in range(200)
            ]

    def test_zipf_single_element(self):
        assert RandomStream(7).zipf_index(1) == 0

    def test_zipf_rejects_empty(self):
        with pytest.raises(ValueError):
            RandomStream(7).zipf_index(0)

    def test_bernoulli_extremes(self):
        rng = RandomStream(7)
        assert not any(rng.bernoulli(0.0) for _ in range(50))
        assert all(rng.bernoulli(1.0) for _ in range(50))
