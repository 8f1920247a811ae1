"""Pairwise significance testing of system EERs with Holm-Bonferroni
family-wise correction.

The pairwise statistic is a two-sided two-proportion z-test treating
each system's EER as an error proportion over its trial count. It is
isolated behind ``pairwise_eer_test`` so a different statistic can be
swapped in without touching the correction or the matrix assembly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .metrics import EerResult
from .util import table_text, write_file

ALPHA = 0.05  # family-wise error rate of the Holm-Bonferroni correction


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def pairwise_eer_test(e1: EerResult, e2: EerResult) -> float:
    """Two-sided p-value for the difference between two systems' EERs.

    Both results come from ``compute_eer``, which refuses an empty class,
    so both trial counts are positive. Degenerate pooled proportions (0 or
    1) give p = 1 when the EERs are equal and p = 0 otherwise.
    """
    n1 = e1.n_tar + e1.n_non
    n2 = e2.n_tar + e2.n_non
    c1 = round(e1.eer * n1)
    c2 = round(e2.eer * n2)
    pooled = (c1 + c2) / (n1 + n2)
    if pooled <= 0.0 or pooled >= 1.0:
        return 1.0 if e1.eer == e2.eer else 0.0
    z = (e1.eer - e2.eer) / math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return 2.0 * _normal_sf(abs(z))


def holm_bonferroni(p_values: list[float]) -> list[bool]:
    """Step-down rejection: sort ascending, compare p_(k) against
    ALPHA / (m - k + 1), stop at the first failure. Flags are returned in
    the original order."""
    m = len(p_values)
    for p in p_values:
        if not (0.0 <= p <= 1.0):
            raise ConfigError(f"p-values must lie in [0, 1], got {p}")
    order = sorted(range(m), key=lambda i: p_values[i])
    reject = [False] * m
    for rank, idx in enumerate(order):
        if p_values[idx] <= ALPHA / (m - rank):
            reject[idx] = True
        else:
            break
    return reject


@dataclass(frozen=True)
class SignificanceMatrix:
    systems: list[str]
    p_values: np.ndarray = field(repr=False)
    reject: np.ndarray = field(repr=False)

    def save(self, out_dir: Path) -> None:
        """Write the p-values to sig_p.csv and the rejections to sig_reject.csv."""
        for name, values in (("sig_p.csv", self.p_values), ("sig_reject.csv", self.reject.astype(int))):
            rows = [(system, *row) for system, row in zip(self.systems, values.tolist())]
            write_file(out_dir / name, table_text([("system", *self.systems), *rows]))


def significance_matrix(results: dict[str, EerResult]) -> SignificanceMatrix:
    """All-pairs z-tests with Holm-Bonferroni applied jointly over the pairs."""
    systems = list(results)
    n = len(systems)
    if n < 2:
        raise ConfigError("significance analysis needs at least two systems")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p_flat = [pairwise_eer_test(results[systems[i]], results[systems[j]]) for i, j in pairs]
    rejected = holm_bonferroni(p_flat)
    p = np.ones((n, n))
    r = np.zeros((n, n), dtype=bool)
    for (i, j), pv, rej in zip(pairs, p_flat, rejected):
        p[i, j] = p[j, i] = pv
        r[i, j] = r[j, i] = rej
    return SignificanceMatrix(systems, p, r)
