"""Small statistics helpers shared across analyses.

The heavy lifting (KS tests, correlation p-values) uses :mod:`scipy.stats`;
these wrappers exist to centralise edge-case handling (empty inputs, constant
series) so analysis modules stay readable.

:mod:`scipy.stats` is imported inside the two p-value helpers, so it loads on
the first p-value a process computes rather than on ``import repro``.  Loading
it costs ~1.2 s and ~60 MB of resident memory per process (measured on a
2-core VM), while reports, streaming, ``serve`` jobs and the linter never
compute a p-value; ``tests/test_imports.py`` keeps it that way.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np


def empirical_cdf(values: Iterable[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of ``values``.

    Returns ``(xs, ps)`` where ``ps[i]`` is the fraction of observations
    ``<= xs[i]``.  ``xs`` is sorted and deduplicated.  Empty input yields two
    empty arrays.
    """
    arr = np.asarray(sorted(values), dtype=float)
    if arr.size == 0:
        return np.array([]), np.array([])
    xs, counts = np.unique(arr, return_counts=True)
    ps = np.cumsum(counts) / arr.size
    return xs, ps


def fraction_at_most(values: Iterable[float], threshold: float) -> float:
    """Fraction of ``values`` that are ``<= threshold`` (0.0 for empty)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0
    return float(np.count_nonzero(arr <= threshold) / arr.size)


def quantiles(values: Iterable[float], qs: Sequence[float]) -> np.ndarray:
    """Quantiles of ``values`` at probabilities ``qs``.

    Raises ``ValueError`` on empty input — silently returning NaNs would let
    downstream report code print nonsense.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take quantiles of an empty sequence")
    return np.quantile(arr, qs)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Pearson correlation ``(r, p)``; ``(nan, 1.0)`` for degenerate input.

    Degenerate means fewer than 3 points or a constant series — scipy would
    raise or warn, and the paper's correlations are only quoted on real
    spreads anyway.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError("x and y must have the same length")
    if xa.size < 3 or np.all(xa == xa[0]) or np.all(ya == ya[0]):
        return float("nan"), 1.0
    from scipy import stats as _sps

    r, p = _sps.pearsonr(xa, ya)
    return float(r), float(p)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sample Kolmogorov–Smirnov test ``(statistic, pvalue)``.

    Used by the vulnerability-event analysis to decide whether post-event
    scanning has returned to the baseline distribution.
    """
    aa = np.asarray(a, dtype=float)
    ba = np.asarray(b, dtype=float)
    if aa.size == 0 or ba.size == 0:
        raise ValueError("KS test requires non-empty samples")
    from scipy import stats as _sps

    stat, p = _sps.ks_2samp(aa, ba)
    return float(stat), float(p)


def weighted_choice_indices(
    rng: np.random.Generator, weights: Sequence[float], size: int
) -> np.ndarray:
    """Sample ``size`` indices proportionally to ``weights``."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty 1-D sequence")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return rng.choice(w.size, size=size, p=w / total)


def gini_coefficient(values: Iterable[float]) -> float:
    """Gini coefficient of ``values`` — used to quantify traffic skew
    (a few scans producing most packets, cf. Richter & Berger)."""
    arr = np.sort(np.asarray(list(values), dtype=float))
    if arr.size == 0:
        raise ValueError("cannot compute Gini of an empty sequence")
    if np.any(arr < 0):
        raise ValueError("Gini is undefined for negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    # Standard formula over sorted values.
    index = np.arange(1, n + 1)
    return float((2 * np.sum(index * arr) / (n * total)) - (n + 1) / n)


def run_starts(*columns: np.ndarray) -> np.ndarray:
    """Indices where a run of equal rows starts in row-sorted ``columns``.

    The grouping step after a sort: with rows sorted so equal rows are
    adjacent, the run starts index the distinct rows, and
    ``np.diff(np.append(starts, n))`` their multiplicities.
    """
    n = columns[0].size
    change = np.empty(n, dtype=bool)
    if n:
        change[0] = True
        change[1:] = columns[0][1:] != columns[0][:-1]
        for column in columns[1:]:
            change[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(change)
