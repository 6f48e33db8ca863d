"""The exact margins of ``verify thm2`` and ``counterexample``.

A profile is w / ||w||, sorted, for floats w, so x = w**2 / sum(w**2) and
both margins are rational in w: ``fractions.Fraction`` reads them off their
definitions, sums over pair sets, with none of the package's recurrences
or closed forms.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

import numpy as np


def weights(text):
    """The floats w that ``cli.parse_lambda_spec(text)`` normalises, by its
    own numpy expressions."""
    head, _, rest = text.partition(":")
    if head == "uniform":
        return np.ones(int(rest))
    if head == "file":
        rows = [ln.strip() for ln in Path(rest).read_text(encoding="utf-8").splitlines()]
        return np.array([float(r) for r in rows if r and not r.startswith("#")])
    param, _, k = rest.partition(":")
    if head == "geometric":
        return float(param) ** np.arange(1, int(k) + 1)
    return np.arange(1, int(k) + 1, dtype=np.float64) ** (-float(param))  # power


def _descending(w):
    """w as Fractions, descending, and sum(w**2)."""
    w = sorted(map(Fraction, w), reverse=True)
    return w, sum(v * v for v in w)


def thm2(w, N):
    """(margin, floor) of ``verify thm2`` at N particles, where the pairing
    state on M = N/2 pairs gives 2 ||B Psi_M||^2 / ||Psi_M||^2
    = 2 sum_{|T|=M-1} prod_T x (sum_{k not in T} x_k)^2 / e_M(x)."""
    w, z = _descending(w)
    x = [v * v / z for v in w]
    M = N // 2
    e = sum(prod(s) for s in combinations(x, M))
    r2 = sum(prod(t) * (1 - sum(t)) ** 2 for t in combinations(x, M - 1))  # sum x = 1
    floor = N * (1 - Fraction(N - 2, 2) * sum(v * v for v in x) - (N * x[0]) ** 2 / 2)
    return 2 * r2 / e - floor, floor


def counterexample(w, N):
    """(margin, floor) of ``counterexample`` at N particles, where the
    uniform pairing state on the first N pairs gives
    2 sum_{|T|=M-1} (sum_{k<=N, k not in T} w_k)^2 / (C(N, M) sum w**2)
    and the floor is (N/2 + 1) (sum_{k<=N} lam_k)^2 / N."""
    w, z = _descending(w)
    head, M = w[:N], N // 2
    rest = sum((sum(head) - sum(t)) ** 2 for t in combinations(head, M - 1))
    floor = (Fraction(N, 2) + 1) * sum(head) ** 2 / (N * z)
    return 2 * rest / (comb(N, M) * z) - floor, floor
