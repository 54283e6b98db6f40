"""Deterministic random-number streams.

Each simulated thread / workload component derives its own independent stream
from a root seed plus a string key, so that (a) simulations are exactly
reproducible given a seed, and (b) changing the number of threads in one
workload does not perturb the random choices made by another.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from itertools import accumulate


def derive_seed(root_seed: int, *keys: str | int) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a key path.

    Uses SHA-256 over the textual key path, which is stable across Python
    versions and process invocations (unlike ``hash()``).
    """
    material = repr(root_seed) + "\x00" + "\x00".join(str(k) for k in keys)
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _zipf_table(n: int, skew: float) -> tuple[list[float], float]:
    """The running sums of the Zipf weights ``1 / (i + 1) ** skew``, each by
    one more float addition of the next weight, and ``sum()`` of the
    weights."""
    weights = [1.0 / (i + 1) ** skew for i in range(n)]
    return list(accumulate(weights)), sum(weights)


#: ``(n, skew)`` -> :func:`_zipf_table`: a pure function of its key, so the
#: tables are shared by every stream and every run in the process.
_ZIPF_TABLES: dict[tuple[int, float], tuple[list[float], float]] = {}


class RandomStream:
    """A seeded random stream with the distributions workloads need.

    Thin wrapper over :class:`random.Random` adding integer-cycle helpers and
    a couple of distributions (bounded lognormal, zipf) that the workload
    models use repeatedly.
    """

    def __init__(self, root_seed: int, *keys: str | int) -> None:
        self.seed = derive_seed(root_seed, *keys)
        self._rng = random.Random(self.seed)

    def child(self, *keys: str | int) -> "RandomStream":
        """Derive an independent child stream."""
        return RandomStream(self.seed, *keys)

    # -- basic delegations ------------------------------------------------

    def random(self) -> float:
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def expovariate(self, mean: float) -> float:
        """Exponential with the given *mean* (not rate)."""
        if mean <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    # -- cycle-valued helpers ---------------------------------------------

    def exp_cycles(self, mean_cycles: float, minimum: int = 1) -> int:
        """Exponentially distributed integer cycle count with given mean."""
        if mean_cycles <= 0:
            return max(minimum, 0)
        return max(minimum, round(self._rng.expovariate(1.0 / mean_cycles)))

    def lognormal_cycles(
        self,
        median_cycles: float,
        sigma: float,
        minimum: int = 1,
        maximum: int | None = None,
    ) -> int:
        """Lognormally distributed integer cycle count.

        ``median_cycles`` is the distribution median (``exp(mu)``), which is
        a far more intuitive parameter than ``mu`` itself. Critical-section
        lengths and short-function durations are classically lognormal-ish.
        """
        mu = math.log(max(median_cycles, 1e-9))
        value = round(self._rng.lognormvariate(mu, sigma))
        value = max(minimum, value)
        if maximum is not None:
            value = min(maximum, value)
        return value

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Pick an index in [0, n) with a Zipf-like popularity skew.

        Used e.g. to pick which table lock a transaction touches: a few
        locks are hot, most are cold, matching server-workload behaviour.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        table = _ZIPF_TABLES.get((n, skew))
        if table is None:
            table = _ZIPF_TABLES[n, skew] = _zipf_table(n, skew)
        cumulative, total = table
        # the first index whose running sum reaches the target
        i = bisect_left(cumulative, self._rng.random() * total)
        return i if i < n else n - 1

    def bernoulli(self, p: float) -> bool:
        return self._rng.random() < p
