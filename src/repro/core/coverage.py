"""The bootstrap calibration study (paper Section 4.2, Figure 3).

Procedure, repeated ``n_sims`` times for each candidate sample size
``n`` (quoting the paper):

1. Simulate a complete supercomputer of ``N`` nodes by resampling with
   replacement from the collection of nodes observed in the real data.
2. Generate a sample of ``n`` nodes by sampling without replacement
   from the full simulated supercomputer.
3. Using Equation 1, obtain a mean estimate along with 80%, 95% and
   99% confidence intervals from the sample.
4. Check whether the intervals contain the true mean power usage of the
   full ``N`` nodes.

Vectorisation note: the naive implementation materialises an
``n_sims × N`` population per replicate (10⁹ draws for LRZ); instead we
use the exchangeability of the resampled population — the ``n`` nodes
sampled *without* replacement from an iid-resampled population are
themselves iid draws from the pilot's empirical distribution, and the
remaining ``N − n`` nodes' total is a multinomial functional of the
pilot values.  Each replicate is then exact without ever building the
population, and all replicates for one ``n`` evaluate as one
``(block, n)`` array operation.

Determinism and parallelism: the ``n_sims`` replicates for each
``(n, level)`` point are partitioned into fixed-size *blocks* of
:data:`RNG_BLOCK` replicates, and every block draws from its own
:class:`numpy.random.SeedSequence` child (spawned point-by-point,
block-by-block, in a fixed order from the caller's generator), so the
draws depend only on ``n_sims`` and the generator.  Per-block hit counts
are integers, and integer addition is exact and order-independent.  The
study runs serially; the experiment runner parallelises across
experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.confidence import t_quantile, z_quantile

__all__ = ["CoverageResult", "coverage_study", "RNG_BLOCK"]

#: Replicates per RNG block — the unit of the draw stream.  Fixed so the
#: draws (and therefore the coverage counts) depend only on ``n_sims``.
RNG_BLOCK = 5_000

_EXACT_REST_MAX = 2_000  # largest remainder drawn by exact multinomial


@dataclass(frozen=True)
class CoverageResult:
    """Coverage of nominal CIs across sample sizes (one Figure 3 panel).

    Attributes
    ----------
    sample_sizes:
        The ``n`` values simulated.
    confidences:
        Nominal levels, e.g. ``(0.80, 0.95, 0.99)``.
    coverage:
        Array of shape ``(len(confidences), len(sample_sizes))`` —
        fraction of replicates whose interval contained the simulated
        population mean.
    n_sims / population:
        Replicates per point and simulated fleet size ``N``.
    method:
        ``"t"`` (Eq. 1) or ``"z"`` (Eq. 2).
    system:
        Label of the pilot dataset.
    """

    sample_sizes: tuple
    confidences: tuple
    coverage: np.ndarray
    n_sims: int
    population: int
    method: str
    system: str = ""
    standard_error: np.ndarray = field(default=None, repr=False)

    def coverage_for(self, confidence: float) -> np.ndarray:
        """Coverage curve for one nominal level."""
        for i, c in enumerate(self.confidences):
            if abs(c - confidence) < 1e-12:
                return self.coverage[i]
        raise KeyError(f"confidence {confidence} not simulated")

    def max_miscalibration(self) -> float:
        """Largest |empirical − nominal| across all points."""
        nominal = np.asarray(self.confidences)[:, None]
        return float(np.abs(self.coverage - nominal).max())

    def is_calibrated(self, tolerance: float = 0.01) -> bool:
        """Whether all points sit within ``tolerance`` of nominal."""
        return self.max_miscalibration() <= tolerance


def _block_sizes(n_sims: int) -> list[int]:
    """Partition ``n_sims`` replicates into fixed-size RNG blocks."""
    full, rem = divmod(n_sims, RNG_BLOCK)
    return [RNG_BLOCK] * full + ([rem] if rem else [])


def _block_hits(
    values: np.ndarray,
    population: int,
    n: int,
    conf: tuple,
    method: str,
    n_block: int,
    seed_seq: np.random.SeedSequence,
) -> np.ndarray:
    """Hit counts (per confidence level) for one block of replicates.

    The block's draws come only from ``seed_seq``, so the result is a
    pure function of the arguments — independent of every other block.
    """
    rng = np.random.default_rng(seed_seq)
    k = values.size
    # Step 2 (via exchangeability): the sample is n iid draws from the
    # pilot's empirical distribution.
    idx = rng.integers(0, k, size=(n_block, n))
    x = values[idx]
    mean_hat = x.mean(axis=1)
    sd_hat = x.std(axis=1, ddof=1)
    sem = sd_hat / np.sqrt(n)

    # Step 1's remaining N − n nodes: their sum is a multinomial
    # functional of the pilot values.  For small remainders it is drawn
    # exactly; for large ones (the usual case — thousands of unmeasured
    # nodes) its CLT limit with the empirical distribution's exact
    # first two moments is indistinguishable (relative skew error
    # O(m^{-1/2}) ≲ 1e-2 at m = 2000) and two orders of magnitude
    # faster than ``Generator.multinomial``.
    m = population - n
    if m == 0:
        rest_sum = np.zeros(n_block)
    elif m <= _EXACT_REST_MAX:
        counts = rng.multinomial(m, np.full(k, 1.0 / k), size=n_block)
        rest_sum = counts @ values
    else:
        mu_pop = values.mean()
        sd_pop = values.std(ddof=0)
        rest_sum = m * mu_pop + np.sqrt(m) * sd_pop * rng.standard_normal(
            n_block
        )
    true_mean = (x.sum(axis=1) + rest_sum) / population

    err = np.abs(mean_hat - true_mean)
    hits = np.empty(len(conf), dtype=np.int64)
    for i, c in enumerate(conf):
        q = t_quantile(c, n - 1) if method == "t" else z_quantile(c)
        hits[i] = int(np.count_nonzero(err <= q * sem))
    return hits


def coverage_study(
    pilot_watts,
    *,
    population: int,
    sample_sizes: Sequence[int] = (3, 5, 10, 15, 20, 30),
    confidences: Sequence[float] = (0.80, 0.95, 0.99),
    n_sims: int = 100_000,
    method: str = "t",
    rng: np.random.Generator | None = None,
    system: str = "",
) -> CoverageResult:
    """Run the Figure 3 calibration simulation.

    Parameters
    ----------
    pilot_watts:
        The observed per-node powers (the paper's "pilot sample", e.g.
        516 LRZ nodes).
    population:
        Size ``N`` of the simulated complete supercomputer.
    sample_sizes:
        Candidate subset sizes ``n`` (each must satisfy
        ``2 <= n <= population``).
    confidences:
        Nominal CI levels to check.
    n_sims:
        Replicates per (n, level) point; the paper uses 100 000.
    method:
        ``"t"`` for Equation 1 (the paper's procedure) or ``"z"`` for
        the Equation 2 approximation — comparing the two reproduces the
        Section 4.2 under-coverage discussion.
    """
    values = np.asarray(pilot_watts, dtype=float).ravel()
    if values.size < 2:
        raise ValueError("pilot needs at least two nodes")
    if not np.all(np.isfinite(values)):
        raise ValueError("pilot contains non-finite values")
    if population < max(sample_sizes):
        raise ValueError("population smaller than the largest sample size")
    if any(n < 2 for n in sample_sizes):
        raise ValueError("every sample size must be >= 2")
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    if method not in ("t", "z"):
        raise ValueError(f"method must be 't' or 'z', got {method!r}")
    if rng is None:
        rng = np.random.default_rng(0)

    conf = tuple(float(c) for c in confidences)
    sizes = tuple(int(n) for n in sample_sizes)

    # One SeedSequence child per (point, block), spawned in a fixed
    # order so the draws depend only on n_sims and the generator.
    point_seqs = rng.bit_generator.seed_seq.spawn(len(sizes))
    blocks = _block_sizes(int(n_sims))
    hits = {j: np.zeros(len(conf), dtype=np.int64) for j in range(len(sizes))}
    for j, n in enumerate(sizes):
        for n_block, seq in zip(blocks, point_seqs[j].spawn(len(blocks))):
            hits[j] += _block_hits(
                values, population, n, conf, method, n_block, seq
            )

    cov = np.empty((len(conf), len(sizes)))
    se = np.empty_like(cov)
    for j in range(len(sizes)):
        phat = hits[j] / float(n_sims)
        cov[:, j] = phat
        se[:, j] = np.sqrt(np.maximum(phat * (1 - phat), 1e-12) / n_sims)

    return CoverageResult(
        sample_sizes=sizes,
        confidences=conf,
        coverage=cov,
        n_sims=int(n_sims),
        population=int(population),
        method=method,
        system=system,
        standard_error=se,
    )
