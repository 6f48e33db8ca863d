"""Pair operator B, pairing trial states, and their exact norms.

Pair k sits on orbitals 2k (up) and 2k + 1 (down).  Given non-negative
coefficients lam_k with sum lam_k**2 = 1, the pair annihilator is

    B = sum_k lam_k b_k,    b_k = c_{2k+1} c_{2k},

and the M-pair trial states are Psi_M = (B*)^M |vacuum>.  The pair creators
b*_k = c*_{2k} c*_{2k+1} commute and square to zero, which pins down the
norms exactly:

    ||Psi_M||^2 = (M!)^2 e_M(lam_1^2, ..., lam_K^2),

with e_M the elementary symmetric polynomial.  That identity is computed by
an independent recurrence here and cross-checked against the Fock-space
construction before the test suite trusts it as an oracle.

In this layout the Jordan-Wigner signs of c_{2k+1} and c_{2k} cancel, so
b_k and b*_k act without signs on occupation masks.  States Psi_M live in
the seniority-zero subspace (every pair jointly occupied or empty), so they
are built on the K-bit pair-occupation basis of dimension binomial(K, M);
the embedding |S>> = prod_{k in S} b*_k |vacuum> into the full sector,
built only on demand, spreads pair bit k onto orbital bits 2k and 2k + 1
with sign +1.

The same holds away from seniority zero.  B, B* and the pair numbers keep
fixed the set of broken pairs (exactly one member occupied) and the spins on
them, so on the (2K, N) sector they split into pair blocks: with s broken
pairs, B acts as the sign-free seniority-zero B of the other K - s pairs
(coefficients not renormalized) on (N - s)/2 pairs.  :func:`pair_blocks`
enumerates one spin copy of each block; the smallest eigenvalue of the gap
operator and the largest of B*B are a min or max over them, so no pairing
computation needs the full sector.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice
from math import comb, factorial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fock import (DEFAULT_MAX_SECTOR, SectorMismatchError, SectorSizeError,
                   SectorVector, _hops, apply_annihilate, apply_create,
                   enumerate_sector, occupation_masks, operator_matrix)

NORM_TOL = 1e-10
DENSE_CAP = 5000          # rows or columns of a dense block, in basis states
MAX_PAIRS = 62            # pair-occupation masks are int64
BATCH_ENTRIES = 1 << 22   # float64 entries per batch of blocks (32 MB)


@dataclass
class PairOperator:
    """B = sum_k lam_k c_{2k+1} c_{2k} on d = 2 * len(lambdas) orbitals."""

    lambdas: np.ndarray

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=np.float64)
        if lams.ndim != 1:
            raise SectorMismatchError("need one coefficient per pair")
        if not np.all(np.isfinite(lams)):
            raise ValueError("pair coefficients must be finite")
        if np.any(lams < 0):
            raise ValueError("pair coefficients must be non-negative")
        if abs(float(np.sum(lams ** 2)) - 1.0) > NORM_TOL:
            raise ValueError("pair coefficients must satisfy sum lam**2 = 1")
        self.lambdas = lams

    @classmethod
    def from_lambdas(cls, lambdas) -> "PairOperator":
        """The operator with coefficients ``lambdas``, one per pair."""
        return cls(lambdas)

    @property
    def n_pairs(self) -> int:
        return len(self.lambdas)

    @property
    def d(self) -> int:
        return 2 * self.n_pairs


def _pair_scatter(lams, amps: np.ndarray, d: int, n: int, width: int,
                  create: bool) -> np.ndarray:
    """sum_k lam_k b*_k amps (``create``) or sum_k lam_k b_k amps.

    Pair k is the ``width`` bits from ``width * k`` up: two orbitals on a
    full sector, one bit on a pair-occupation basis.  ``n`` is the popcount
    of the fuller side: ``amps`` lives on ``occupation_masks(d, n - width)``
    when creating and on ``occupation_masks(d, n)`` when annihilating.
    """
    out = np.zeros(comb(d, n if create else n - width), dtype=amps.dtype)
    pair = (1 << width) - 1
    for k, lam in enumerate(lams):
        if lam != 0.0:
            rows, cols = _hops(d, n, pair << (width * k))
            dst, src = (cols, rows) if create else (rows, cols)
            out[dst] += lam * amps[src]
    return out


def apply_B(op: PairOperator, vec: SectorVector) -> SectorVector:
    """Matrix-free pair annihilation, (d, N) -> (d, N-2)."""
    basis = vec.basis
    if basis.d != op.d:
        raise SectorMismatchError("state dimension does not match the pair basis")
    if basis.N < 2:
        raise SectorMismatchError("pair annihilation needs at least two particles")
    target = enumerate_sector(basis.d, basis.N - 2)
    return SectorVector(target, _pair_scatter(op.lambdas, vec.amplitudes, basis.d,
                                              basis.N, 2, create=False))


def apply_B_star(op: PairOperator, vec: SectorVector) -> SectorVector:
    """Adjoint of :func:`apply_B`, (d, N) -> (d, N+2)."""
    basis = vec.basis
    if basis.d != op.d:
        raise SectorMismatchError("state dimension does not match the pair basis")
    if basis.N + 2 > basis.d:
        raise SectorSizeError("sector overflow")
    target = enumerate_sector(basis.d, basis.N + 2)
    return SectorVector(target, _pair_scatter(op.lambdas, vec.amplitudes, basis.d,
                                              basis.N + 2, 2, create=True))


def dense_b_matrix(op: PairOperator, N: int) -> np.ndarray:
    """Dense matrix of B from the (d, N) sector to the (d, N-2) sector."""
    src = enumerate_sector(op.d, N)
    tgt = enumerate_sector(op.d, N - 2)
    mat = np.zeros((tgt.dim, src.dim), dtype=np.float64)
    for k, lam in enumerate(op.lambdas):
        rows, cols = _hops(op.d, N, 3 << 2 * k)
        mat[rows, cols] = lam
    return mat


def pair_number_diagonal(op: PairOperator, sector) -> np.ndarray:
    """Diagonal of sum_k lam_k**2 (n_{k,up} + n_{k,down}) on a sector basis."""
    states = sector.states
    vals = np.zeros(sector.dim, dtype=np.float64)
    for k in range(op.n_pairs):
        vals += op.lambdas[k] ** 2 * np.bitwise_count(states & (3 << 2 * k))
    return vals


def _admit(K: int, states: int, cap: int, what: str) -> None:
    """Refuse a pair basis on K pairs needing ``states`` states above ``cap``."""
    if K > MAX_PAIRS:
        raise SectorSizeError(f"{K} pairs exceed the mask width of {MAX_PAIRS}")
    if states > cap:
        raise SectorSizeError(f"{what} on {K} pairs needs {states} pair states, "
                              f"cap is {cap}")


def _admit_block(K: int, M: int) -> None:
    """A dense block of B, M -> M-1 pairs, must fit ``DENSE_CAP`` on both sides."""
    _admit(K, max(comb(K, M), comb(K, M - 1) if M else 0), DENSE_CAP,
           "dense pair block")


@dataclass
class PairingState:
    """Psi_M = (B*)^M |vacuum> with its exact squared norm.

    ``pair_masks`` / ``pair_amplitudes`` hold the seniority-zero coefficients
    in the operator-product basis; ``vector`` is the full-sector embedding,
    built on first access.  A state whose coefficient support is smaller than
    M is flagged degenerate (it is exactly zero) rather than rejected.
    """

    M: int
    n_pairs: int
    norm_sq: float
    degenerate: bool
    pair_masks: np.ndarray
    pair_amplitudes: np.ndarray

    @cached_property
    def vector(self) -> SectorVector:
        sector = enumerate_sector(2 * self.n_pairs, 2 * self.M)
        support = np.flatnonzero(self.pair_amplitudes)
        pairs = self.pair_masks[support]
        masks = np.zeros_like(pairs)
        for k in range(self.n_pairs):
            masks |= ((pairs >> k) & 1) * (3 << 2 * k)
        full = np.zeros(sector.dim, dtype=np.complex128)
        full[sector.index_of(masks)] = self.pair_amplitudes[support]
        return SectorVector(sector, full)


def pairing_states(op: PairOperator, M_max: int) -> Iterator[PairingState]:
    """Psi_0, ..., Psi_{M_max}, each from the previous by one B*.

    Works on the pair-occupation basis.  Admission is arithmetic: if the
    largest pair basis on the way, C(K, min(M_max, K // 2)) states, exceeds
    ``DEFAULT_MAX_SECTOR`` nothing is enumerated or allocated.
    """
    if M_max < 0:
        raise ValueError("M must be non-negative")
    if 2 * M_max > op.d:
        raise SectorSizeError("sector overflow: 2M exceeds the orbital count")
    K = op.n_pairs
    _admit(K, comb(K, min(M_max, K // 2)), DEFAULT_MAX_SECTOR, "pairing state")
    amps = np.ones(1, dtype=np.float64)
    for M in range(M_max + 1):
        if M:
            amps = _pair_scatter(op.lambdas, amps, K, M, 1, create=True)
        norm_sq = float(np.sum(amps ** 2))
        yield PairingState(M=M, n_pairs=K, norm_sq=norm_sq,
                           degenerate=norm_sq == 0.0,
                           pair_masks=occupation_masks(K, M), pair_amplitudes=amps)


def build_pairing_state(op: PairOperator, M: int) -> PairingState:
    """Apply B* to the vacuum M times (see :func:`pairing_states`)."""
    for state in pairing_states(op, M):
        pass
    return state


def pair_expectation(lambdas, state: PairingState) -> float:
    """<phi, G phi> = 2 ||B Psi||^2 / ||Psi||^2 without leaving the pair basis.

    phi is the canonical form with coefficients ``lambdas`` on the state's
    pairs (u_k, v_k the up and down members), so B = sum_k lam_k b_k acts on
    the pair amplitudes without signs.
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    if lams.shape != (state.n_pairs,):
        raise SectorMismatchError("need one coefficient per pair of the state")
    if state.degenerate:
        raise ValueError("cannot normalize the zero vector")
    if state.M == 0:
        return 0.0
    out = _pair_scatter(lams, state.pair_amplitudes, state.n_pairs, state.M, 1,
                        create=False)
    return 2.0 * float(np.sum(out ** 2)) / state.norm_sq


@lru_cache(maxsize=32)
def _block_pattern(K: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, pair) of every nonzero of the sign-free B, M -> M-1 pairs."""
    hops = [_hops(K, M, 1 << k) for k in range(K)]
    rows = np.concatenate([r for r, _ in hops])
    cols = np.concatenate([c for _, c in hops])
    pairs = np.concatenate([np.full(len(c), k) for k, (_, c) in enumerate(hops)])
    return rows, cols, pairs


def pair_b_blocks(coeffs, M: int) -> np.ndarray:
    """Sign-free B from M to M-1 pairs on a batch of pair blocks.

    ``coeffs`` has shape (n_blocks, K') and need not be normalized; block b
    represents sum_k coeffs[b, k] b_k on the basis ``occupation_masks(K', M)``.
    Returns shape (n_blocks, C(K', M-1), C(K', M)), with no rows for M = 0.
    All blocks share one sparsity pattern, so the batch is one gather.
    Blocks with more than ``DENSE_CAP`` rows or columns are refused before
    allocation.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n, K = coeffs.shape
    _admit_block(K, M)
    out = np.zeros((n, comb(K, M - 1) if M else 0, comb(K, M)), dtype=np.float64)
    if M:
        rows, cols, pairs = _block_pattern(K, M)
        out[:, rows, cols] = coeffs[:, pairs]
    return out


class PairBlocks(NamedTuple):
    """A batch of pair blocks with the same number s of broken pairs.

    ``b`` is the sign-free B of each block, shape (n, C(K-s, M-1), C(K-s, M))
    with M = (N-s)/2; ``pair_number`` is the diagonal of
    sum_k lam_k^2 (n_up + n_down) on each block, shape (n, C(K-s, M)); it
    includes the constant sum_{k broken} lam_k^2.
    """

    seniority: int
    b: np.ndarray
    pair_number: np.ndarray


def admit_pair_blocks(K: int, N: int) -> range:
    """Seniorities of the pair blocks of the (2K, N) sector, after admission.

    Admission is arithmetic: the largest block (seniority N mod 2) must fit
    ``DENSE_CAP`` and all blocks together ``DEFAULT_MAX_SECTOR`` states, or
    :class:`SectorSizeError` is raised.  Callers that solve several N call
    it for each before the first solve, so an oversized N is refused before
    any work.
    """
    if N < 0 or N > 2 * K:
        raise SectorSizeError(f"no (d={2 * K}, N={N}) sector")
    seniorities = range(N % 2, min(N, 2 * K - N) + 1, 2)
    _admit_block(K - N % 2, (N - N % 2) // 2)
    total = sum(comb(K, s) * comb(K - s, (N - s) // 2) for s in seniorities)
    if total > DEFAULT_MAX_SECTOR:
        raise SectorSizeError(
            f"pair blocks of (d={2 * K}, N={N}) hold {total} states, "
            f"cap is {DEFAULT_MAX_SECTOR}")
    return seniorities


def pair_blocks(lambdas, N: int) -> Iterator[PairBlocks]:
    """Every pair block of the (2K, N) sector, one spin copy each, in batches.

    A block is fixed by its set S of s broken pairs (s = N mod 2, ..., up to
    min(N, 2K - N)); its 2**s spin copies are identical and yielded once.
    Seniorities come in ascending order, so the seniority-zero block (even N)
    comes first, alone.  :func:`admit_pair_blocks` runs before anything is
    built.
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    K = len(lams)
    seniorities = admit_pair_blocks(K, N)
    lam2 = lams ** 2
    for s in seniorities:
        M = (N - s) // 2
        masks = occupation_masks(K - s, M)
        occupied = ((masks[:, None] >> np.arange(K - s)) & 1).astype(np.float64)
        rows = comb(K - s, M - 1) if M else 0
        per_batch = max(1, BATCH_ENTRIES // (len(masks) * (rows + len(masks))))
        subsets = combinations(range(K), s)
        while chunk := list(islice(subsets, per_batch)):
            broken = np.array(chunk, dtype=np.intp).reshape(len(chunk), s)
            kept = np.ones((len(chunk), K), dtype=bool)
            kept[np.arange(len(chunk))[:, None], broken] = False
            coeffs = np.broadcast_to(lams, kept.shape)[kept].reshape(len(chunk), K - s)
            pair_number = (lam2[broken].sum(axis=1)[:, None]
                           + 2.0 * (coeffs ** 2) @ occupied.T)
            yield PairBlocks(s, pair_b_blocks(coeffs, M), pair_number)


def elementary_symmetric(values, order: int) -> float:
    """e_order of the given values via the stable ascending recurrence."""
    values = np.asarray(values, dtype=np.float64)
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > len(values):
        return 0.0
    partial = np.zeros(order + 1, dtype=np.float64)
    partial[0] = 1.0
    for x in values:
        upper = min(order, len(partial) - 1)
        for j in range(upper, 0, -1):
            partial[j] += x * partial[j - 1]
    return float(partial[order])


def norm_sq_oracle(lambdas, M: int) -> float:
    """Exact ||Psi_M||^2 = (M!)^2 e_M(lam**2), independent of the Fock build.

    Returns 0 when M exceeds the number of nonzero coefficients.
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    if M < 0:
        raise ValueError("M must be non-negative")
    if M > len(lams):
        return 0.0
    return factorial(M) ** 2 * elementary_symmetric(lams ** 2, M)


class IdentityResiduals(NamedTuple):
    annihilation: float
    rearranged: float


def annihilation_identity_check(op: PairOperator, M: int, k: int,
                                spin: str) -> IdentityResiduals:
    """Residuals of the two exact pairing-state identities.

    ``annihilation``:  || c_{k,s} Psi_M  -  (+/-)_s M lam_k c*_{k,sbar} Psi_{M-1} ||
    ``rearranged``:    || (lam_k c*_{k,s} (+/-)_s (M+1)^{-1} c_{k,sbar} B*) Psi_M ||

    with sign convention (+/-)_up = +1, (+/-)_down = -1 and sbar the opposite
    member of pair k (orbital 2k for up, 2k + 1 for down).  Both vanish
    identically; only roundoff remains.
    """
    if spin not in ("up", "down"):
        raise ValueError("spin must be 'up' or 'down'")
    sign = 1.0 if spin == "up" else -1.0
    orb = 2 * k + (spin == "down")
    orb_bar = orb ^ 1
    lam = float(op.lambdas[k])
    psi_m = build_pairing_state(op, M).vector

    if M == 0:
        res1 = 0.0
    else:
        psi_prev = build_pairing_state(op, M - 1).vector
        lhs = apply_annihilate(orb, psi_m)
        rhs = (sign * M * lam) * apply_create(orb_bar, psi_prev)
        res1 = (lhs - rhs).norm()

    created = lam * apply_create(orb, psi_m)
    lowered = (sign / (M + 1)) * apply_annihilate(orb_bar, apply_B_star(op, psi_m))
    res2 = (created + lowered).norm()
    return IdentityResiduals(annihilation=float(res1), rearranged=float(res2))


def _apply_commutator(op: PairOperator, w: SectorVector) -> SectorVector:
    """[B, B*] w; a term whose intermediate sector does not exist is zero."""
    N, d = w.basis.N, op.d
    first = apply_B(op, apply_B_star(op, w)) if N + 2 <= d else None
    second = apply_B_star(op, apply_B(op, w)) if N >= 2 else None
    if first is None:
        return -1.0 * second
    if second is None:
        return first
    return first - second


def commutator_defect(op: PairOperator, N: int) -> float:
    """Max deviation of [B, B*] from 1 - sum_k lam_k**2 (n_up + n_down).

    Both sides are built as dense matrices on the (d, N) sector; intended for
    d <= 8 where this is cheap.
    """
    sec = enumerate_sector(op.d, N)
    commutator = operator_matrix(lambda w: _apply_commutator(op, w), sec, sec)
    expected = np.diag(1.0 - pair_number_diagonal(op, sec)).astype(np.complex128)
    return float(np.max(np.abs(commutator - expected)))


def write_state_text(path, state: SectorVector) -> None:
    """Text export: header ``d N``, then ``mask re im`` per nonzero amplitude."""
    lines = [f"{state.basis.d} {state.basis.N}"]
    for i in np.nonzero(state.amplitudes)[0]:
        a = state.amplitudes[i]
        lines.append(f"{int(state.basis.states[i])} {float(a.real)!r} {float(a.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
