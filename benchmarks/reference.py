"""Reference values computed without calling the locc_purity package.

Everything here is the benchmark's own arithmetic: exact integers or
fractions where the quantity is a polynomial, plain floats only for
logarithms. The package's outputs are compared against these values outside
every timed interval.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence


def complete_homogeneous_exact(n: int, xs: Sequence[float]) -> Fraction:
    """h_n(xs) in exact rational arithmetic over the given floats.

    h_n is the t^n coefficient of prod_i 1 / (1 - x_i t); the float inputs
    are taken exactly, so the only rounding is the caller's final float().
    """
    h = [Fraction(0)] * (n + 1)
    h[0] = Fraction(1)
    for x in xs:
        fx = Fraction(x)
        for k in range(1, n + 1):
            h[k] += fx * h[k - 1]
    return h[n]


def partitions_at_most(n: int, rows: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n with at most `rows` parts, padded with zeros to `rows`."""
    if rows == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        rest = n - first
        if rest > first * (rows - 1):
            break
        for tail in partitions_at_most(rest, rows - 1):
            if tail[0] <= first:
                yield (first,) + tail


def hook_length_dim(lam: Sequence[int]) -> int:
    """Dimension of the symmetric-group irrep lam, by the hook length formula."""
    parts = [p for p in lam if p]
    n = sum(parts)
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])] if parts else []
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(n) // hooks


def schur_table(weights: Sequence[int], n_max: int) -> dict[tuple[int, ...], int]:
    """s_lam(weights) for every lam with at most len(weights) rows, |lam| <= n_max.

    Integer weights, exact integer results, by the branching rule
    s_lam(x_1..x_k) = sum over mu interlacing lam of x_k^(|lam|-|mu|) s_mu(x_1..x_{k-1}).
    Every term is non-negative, so there is no cancellation to control.
    Keys are partitions padded with zeros to len(weights).
    """
    x1 = weights[0]
    table: dict[tuple[int, ...], int] = {(m,): x1**m for m in range(n_max + 1)}
    for k in range(2, len(weights) + 1):
        xk = weights[k - 1]
        pw = [xk**j for j in range(n_max + 1)]
        nxt: dict[tuple[int, ...], int] = {}
        for n in range(n_max + 1):
            for lam in partitions_at_most(n, k):
                total = 0
                for mu in _interlacing(lam):
                    total += pw[n - sum(mu)] * table[mu]
                nxt[lam] = total
        table = nxt
    return table


def _interlacing(lam: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """mu with lam_1 >= mu_1 >= lam_2 >= ... >= mu_{k-1} >= lam_k."""
    if len(lam) == 2:
        for m in range(lam[1], lam[0] + 1):
            yield (m,)
        return
    for m in range(lam[1], lam[0] + 1):
        for rest in _interlacing(lam[1:]):
            yield (m,) + rest


def kl_divergence(q: Sequence[float], p: Sequence[float]) -> float:
    total = 0.0
    for qi, pi in zip(q, p):
        if qi > 0.0:
            if pi <= 0.0:
                return math.inf
            total += qi * math.log(qi / pi)
    return total


def shannon_entropy(q: Sequence[float]) -> float:
    return -sum(x * math.log(x) for x in q if x > 0.0)
