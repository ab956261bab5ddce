"""Key-choosing distributions, following the YCSB definitions.

The paper's workloads draw keys either uniformly or from a Zipfian
distribution with theta = 0.99 (§8.3).  The Zipfian implementation is
the standard Gray et al. rejection-free sampler YCSB uses, including the
*scrambled* variant that hashes ranks so popularity is spread across the
key space (which is how YCSB actually issues them).
"""

from __future__ import annotations


import numpy as np

__all__ = [
    "ScrambledZipfianChooser",
    "UniformChooser",
    "ZipfianChooser",
]

#: YCSB's default Zipfian constant.
DEFAULT_THETA = 0.99

#: Knuth multiplicative hash constant, as in YCSB's FNV-based scramble.
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1


def fnv1a_64(value: int) -> int:
    """FNV-1a over the 8 little-endian bytes of ``value``."""
    data = value & _MASK
    result = _FNV_OFFSET
    for _ in range(8):
        result ^= data & 0xFF
        result = (result * _FNV_PRIME) & _MASK
        data >>= 8
    return result


class UniformChooser:
    """Every key equally likely."""

    def __init__(self, n_keys: int, rng: np.random.Generator):
        if n_keys < 1:
            raise ValueError("need at least one key")
        self.n_keys = n_keys
        self.rng = rng

    def sample(self, count: int) -> np.ndarray:
        return self.rng.integers(0, self.n_keys, size=count)


class ZipfianChooser:
    """Zipfian over ranks 0..n-1: rank r drawn with weight 1/(r+1)^theta.

    Uses the Gray et al. quantile method (the YCSB generator): two
    uniform draws map to a rank via the zeta-based closed form, costing
    O(1) per sample after an O(n) zeta precomputation.
    """

    def __init__(self, n_keys: int, rng: np.random.Generator,
                 theta: float = DEFAULT_THETA):
        if n_keys < 1:
            raise ValueError("need at least one key")
        if not 0 < theta < 1:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.n_keys = n_keys
        self.rng = rng
        self.theta = theta
        self.zetan = self._zeta(n_keys, theta)
        self.zeta2 = self._zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = ((1.0 - (2.0 / n_keys) ** (1.0 - theta))
                    / (1.0 - self.zeta2 / self.zetan))

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        ranks = np.arange(1, n + 1, dtype=np.float64)
        return float(np.sum(1.0 / ranks ** theta))

    def sample(self, count: int) -> np.ndarray:
        u = self.rng.random(count)
        uz = u * self.zetan
        ranks = np.empty(count, dtype=np.int64)
        # Region 1: rank 0; region 2: rank 1; region 3: the power curve.
        first = uz < 1.0
        second = (~first) & (uz < 1.0 + 0.5 ** self.theta)
        rest = ~(first | second)
        ranks[first] = 0
        ranks[second] = 1
        ranks[rest] = (self.n_keys
                       * (self.eta * u[rest] - self.eta + 1.0) ** self.alpha
                       ).astype(np.int64)
        return np.clip(ranks, 0, self.n_keys - 1)

    def hit_fraction(self, hot_keys: int) -> float:
        """Analytic probability that a draw lands in the hottest
        ``hot_keys`` ranks -- used to sanity-check measured hit ratios."""
        if hot_keys >= self.n_keys:
            return 1.0
        return self._zeta(max(hot_keys, 1), self.theta) / self.zetan


class ScrambledZipfianChooser:
    """Zipfian popularity spread over the key space by FNV hashing.

    This is what YCSB actually issues: rank popularity is Zipfian but
    the popular items are scattered, so hotness is not correlated with
    insertion order.
    """

    def __init__(self, n_keys: int, rng: np.random.Generator,
                 theta: float = DEFAULT_THETA):
        self.n_keys = n_keys
        self._zipf = ZipfianChooser(n_keys, rng, theta)
        # Precompute the rank -> key scramble (vectorized FNV is overkill;
        # the table is built once).
        self._scramble = np.array(
            [fnv1a_64(rank) % n_keys for rank in range(n_keys)],
            dtype=np.int64)

    def sample(self, count: int) -> np.ndarray:
        return self._scramble[self._zipf.sample(count)]

    def hit_fraction(self, hot_keys: int) -> float:
        return self._zipf.hit_fraction(hot_keys)

