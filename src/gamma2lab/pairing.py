"""Pair operator B, pairing trial states, and their exact norms.

Pair k sits on orbitals 2k (up) and 2k + 1 (down).  Given non-negative
coefficients lam_k with sum lam_k**2 = 1, the pair annihilator is

    B = sum_k lam_k b_k,    b_k = c_{2k+1} c_{2k},

and the M-pair trial states are Psi_M = (B*)^M |vacuum>.  The pair creators
b*_k = c*_{2k} c*_{2k+1} commute and square to zero, which pins down the
states exactly: Psi_M = M! sum_{|S|=M} prod_{k in S} lam_k |S>>, so

    ||Psi_M||^2 = (M!)^2 e_M(lam_1^2, ..., lam_K^2),

with e_M the elementary symmetric polynomial.  For a second coefficient
list mu, B_mu |S>> = sum_{k in S} mu_k |S minus k>>, and with x = lam**2

    2 ||B_mu Psi_M||^2 / ||Psi_M||^2
        = 2 sum_{|T|=M-1} prod_{k in T} x_k (sum_{k not in T} lam_k mu_k)^2 / e_M(x),

the one number the trial-state checks read.  :func:`pair_expectation` and
:func:`norm_sq_oracle` evaluate both identities from one scan over the
pairs that carries e_j and two companion sums, j <= M, in log form
(:func:`_log_pair_sums`): O(K M) time, O(M) memory, no state built.  The
norm is cross-checked against the Fock-space construction before the test
suite trusts it as an oracle.

In this layout the Jordan-Wigner signs of c_{2k+1} and c_{2k} cancel, so
b_k and b*_k act without signs on occupation masks: :func:`apply_B` and
:func:`apply_B_star` pass the rows ``3 << 2k`` to the one applier
:func:`fock._scatter`, whose sign there is +1, and :func:`dense_b_matrix`
writes the positions of one hop table of :func:`fock._hops` for every pair
at once.  On the K-bit pair-occupation basis b*_k carries no sign at all
while the table's sign is that of a single creator, so
:func:`pairing_states` scatters along its positions in a loop of its own.
States Psi_M live in the seniority-zero subspace
(every pair jointly occupied or empty), on the K-bit pair-occupation basis
of dimension binomial(K, M).  Where the construction itself is checked (the
norm recursion, the identities) it is built by applying B* M times
(:func:`pairing_states`); the kernel vector of the gap operator is read off
the closed form instead (:func:`pairing_amplitudes`).  The embedding
|S>> = prod_{k in S} b*_k |vacuum> into the full sector, built only on
demand, spreads pair bit k onto orbital bits 2k and 2k + 1 with sign +1.

The same holds away from seniority zero.  B, B* and the pair numbers keep
fixed the set of broken pairs (exactly one member occupied) and the spins on
them, so on the (2K, N) sector they split into pair blocks: with s broken
pairs, B acts as the sign-free seniority-zero B of the other K - s pairs
(coefficients not renormalized) on (N - s)/2 pairs.  :func:`pair_blocks`
enumerates one spin copy of each distinct block as its kept coefficients
(blocks that tied coefficients make equal come once); the smallest
eigenvalue of the gap operator and the largest of B*B are a min or max over
them, so no pairing computation needs the full sector.  No block
builds B: :func:`pair_grams` writes B*B on M pairs from its defining formula,
the diagonal sum_{k in S} c_k^2 plus c_k c_l at every move of a pair k to
an empty pair l, read off one cached move table (:func:`_pair_moves`).  By
particle-hole symmetry B*B on M of K' pairs has the same largest eigenvalue
as B*B on K' + 1 - M pairs: the latter is B B* on M - 1 pairs read on the
complements, and B B* shares the nonzero spectrum of B*B.  The top
eigenvalue is taken on whichever side has the smaller basis.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, islice
from math import comb, lgamma
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fock import (DEFAULT_MAX_SECTOR, SectorMismatchError, SectorSizeError,
                   SectorVector, _hops, _scatter, apply_annihilate, apply_create,
                   enumerate_sector, occupation_masks)

NORM_TOL = 1e-10
DENSE_CAP = 5000          # rows of a dense Gram block, in basis states
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


def apply_B(op: PairOperator, vec: SectorVector) -> SectorVector:
    """Matrix-free pair annihilation, (d, N) -> (d, N-2)."""
    basis = vec.basis
    if basis.d != op.d:
        raise SectorMismatchError("state dimension does not match the pair basis")
    if basis.N < 2:
        raise SectorMismatchError("pair annihilation needs at least two particles")
    return _scatter(vec, zip(3 << 2 * np.arange(op.n_pairs), op.lambdas), 2, create=False)


def apply_B_star(op: PairOperator, vec: SectorVector) -> SectorVector:
    """Adjoint of :func:`apply_B`, (d, N) -> (d, N+2)."""
    basis = vec.basis
    if basis.d != op.d:
        raise SectorMismatchError("state dimension does not match the pair basis")
    if basis.N + 2 > basis.d:
        raise SectorSizeError("sector overflow")
    return _scatter(vec, zip(3 << 2 * np.arange(op.n_pairs), op.lambdas), 2, create=True)


def dense_b_matrix(op: PairOperator, N: int) -> np.ndarray:
    """Dense matrix of B from the (d, N) sector to the (d, N-2) sector, read
    off one hop table of every pair."""
    src, tgt = (enumerate_sector(op.d, n).dim for n in (N, N - 2))
    mat = np.zeros((tgt, src))
    pair, cleared, held, _ = _hops(op.d, N, 3 << 2 * np.arange(op.n_pairs))
    mat[cleared, held] = op.lambdas[pair]
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


@dataclass
class PairingState:
    """Psi_M = (B*)^M |vacuum> with its exact squared norm.

    ``pair_masks`` / ``pair_amplitudes`` hold the seniority-zero coefficients
    in the operator-product basis; ``vector`` is the full-sector embedding,
    built on first access.  A state whose coefficient support is smaller than
    M is exactly zero (``norm_sq`` 0) rather than rejected.
    """

    M: int
    n_pairs: int
    norm_sq: float
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
        if M:  # b*_k is unsigned on the pair basis, where _hops gives c*_k's sign
            amps, prev = np.zeros(comb(K, M)), amps
            for k, lam in enumerate(op.lambdas):
                _, rows, cols, _ = _hops(K, M, np.array([1 << k]))
                amps[cols] += lam * prev[rows]
                del _, rows, cols  # before the next table is built
        yield PairingState(M=M, n_pairs=K, norm_sq=float(np.sum(amps ** 2)),
                           pair_masks=occupation_masks(K, M), pair_amplitudes=amps)


def build_pairing_state(op: PairOperator, M: int) -> PairingState:
    """Apply B* to the vacuum M times (see :func:`pairing_states`)."""
    for state in pairing_states(op, M):
        pass
    return state


@lru_cache(maxsize=32)
def _pair_moves(K: int, M: int) -> tuple[np.ndarray, ...]:
    """(occupied, rows, cols, k, l) on ``occupation_masks(K, M)``: the 0/1
    float occupation table, shape (C(K, M), K), and every move of an
    occupied pair k to an empty pair l.  ``cols`` is the position of a mask
    holding k and not l, ``rows`` that of the same mask with k moved to l.
    All five are read-only."""
    masks = occupation_masks(K, M)
    occupied = ((masks[:, None] >> np.arange(K)) & 1).astype(np.float64)
    cols, k, l = np.nonzero(occupied[:, :, None] > occupied[:, None, :])
    rows = np.searchsorted(masks, masks[cols] ^ (1 << k) ^ (1 << l))
    tables = (occupied, rows, cols, k, l)
    for table in tables:
        table.setflags(write=False)
    return tables


def admit_gram(K: int, M: int) -> None:
    """Refuse the Gram of :func:`pair_grams` on M of K pairs, C(K, M) rows,
    above ``DENSE_CAP`` rows, by arithmetic."""
    _admit(K, comb(K, M), DENSE_CAP, "dense pair block")


def pair_grams(coeffs, M: int) -> np.ndarray:
    """B*B of the sign-free B, M -> M-1 pairs, on a batch of pair blocks.

    ``coeffs`` has shape (n_blocks, K') and need not be normalized; block b
    represents B = sum_k coeffs[b, k] b_k on the basis
    ``occupation_masks(K', M)``.  Since b*_l b_k moves pair k to l, B*B has
    the diagonal sum_{k in S} c_k^2 on a mask S and the entry c_k c_l
    between S and S with k moved to l (:func:`_pair_moves`), and no other
    nonzero.  Returns shape (n_blocks, C(K', M), C(K', M)).  A Gram with
    more than ``DENSE_CAP`` rows is refused before allocation
    (:func:`admit_gram`).
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n, K = coeffs.shape
    admit_gram(K, M)
    occupied, rows, cols, k, l = _pair_moves(K, M)
    grams = np.zeros((n, len(occupied), len(occupied)))
    grams[:, rows, cols] = coeffs[:, k] * coeffs[:, l]
    diag = np.arange(len(occupied))
    grams[:, diag, diag] = coeffs ** 2 @ occupied.T
    return grams


def pairing_amplitudes(lambdas, M: int) -> np.ndarray | None:
    """Psi_M on ``occupation_masks(K, M)`` from its closed form, scaled so
    that its largest entry is 1, or None when fewer than M coefficients are
    nonzero and Psi_M vanishes.

    Psi_M = M! sum_{|S|=M} prod_{k in S} lam_k |S>>, so no B* is applied.
    Each product is summed as logarithms over the occupation table of
    :func:`_pair_moves`, and the largest is subtracted before exponentiating:
    Psi_M itself can be too small to normalize (for ``geometric:1e-30:8``
    and M = 4 its largest entry is 2.4e-179, whose square underflows).
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    if np.count_nonzero(lams) < M:
        return None
    occupied = _pair_moves(len(lams), M)[0]
    with np.errstate(divide="ignore"):  # log 0 = -inf: the mask's entry is 0
        logs = np.where(occupied > 0, np.log(lams), 0.0).sum(axis=1)
    return np.exp(logs - logs.max())


class PairBlocks(NamedTuple):
    """A batch of pair blocks with the same number s of broken pairs.

    ``coeffs`` holds the coefficients of the kept pairs of each block, shape
    (n, K - s); the block's B*B is ``pair_grams(coeffs, (N - s) // 2)``.
    ``broken`` holds sum_{k broken} lam_k^2 of each block, shape (n,), so the
    diagonal of sum_k lam_k^2 (n_up + n_down) on a block is
    broken + 2 diag(B*B).
    """

    seniority: int
    coeffs: np.ndarray
    broken: np.ndarray


def admit_pair_blocks(K: int, N: int) -> range:
    """Seniorities of the pair blocks of the (2K, N) sector, after admission.

    Admission is arithmetic: all blocks together must fit
    ``DEFAULT_MAX_SECTOR`` states, or :class:`SectorSizeError` is raised.
    The Gram each block needs is admitted by the solver, with
    :func:`admit_gram` on the side it builds.  Callers that solve several N
    admit each before the first solve, so an oversized N is refused before
    any work.
    """
    if N < 0 or N > 2 * K:
        raise SectorSizeError(f"no (d={2 * K}, N={N}) sector")
    seniorities = range(N % 2, min(N, 2 * K - N) + 1, 2)
    total = sum(comb(K, s) * comb(K - s, (N - s) // 2) for s in seniorities)
    if total > DEFAULT_MAX_SECTOR:
        raise SectorSizeError(
            f"pair blocks of (d={2 * K}, N={N}) hold {total} states, "
            f"cap is {DEFAULT_MAX_SECTOR}")
    return seniorities


def pair_blocks(lambdas, N: int) -> Iterator[PairBlocks]:
    """Every distinct pair block of the (2K, N) sector, one spin copy each,
    in batches.

    A block is fixed by its set S of s broken pairs (s = N mod 2, ..., up to
    min(N, 2K - N)); its 2**s spin copies are identical and yielded once.
    Two sets that differ only in which members of a run of bitwise-equal
    adjacent coefficients they break leave the same kept coefficients and
    the same ``broken``, so only the sets that break a prefix of every such
    run are yielded: one block per seniority for a uniform profile.
    Seniorities come in ascending order, so the seniority-zero block (even N)
    comes first, alone.  A batch holds at most ``BATCH_ENTRIES // 2`` entries
    of the blocks' B*B, or one block, which leaves the other half for the
    solver's copy.  :func:`admit_pair_blocks` runs before the first batch.
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    K = len(lams)
    seniorities = admit_pair_blocks(K, N)
    lam2 = lams ** 2
    tied = np.r_[False, lams[1:].view(np.int64) == lams[:-1].view(np.int64)]
    for s in seniorities:
        entries = comb(K - s, (N - s) // 2) ** 2  # of one block's B*B
        per_batch = max(1, BATCH_ENTRIES // (2 * entries))
        subsets = combinations(range(K), s)
        while chunk := list(islice(subsets, per_batch)):
            broken = np.array(chunk, dtype=np.intp).reshape(len(chunk), s)
            later = tied[broken]  # a tied pair broken without pair k - 1
            later[:, 1:] &= broken[:, :-1] != broken[:, 1:] - 1
            broken = broken[~later.any(axis=1)]
            if n := len(broken):
                kept = np.ones((n, K), dtype=bool)
                kept[np.arange(n)[:, None], broken] = False
                coeffs = np.broadcast_to(lams, kept.shape)[kept].reshape(n, K - s)
                yield PairBlocks(s, coeffs, lam2[broken].sum(axis=1))


def _log_pair_sums(x: np.ndarray, c: np.ndarray, M: int) -> np.ndarray:
    """Logarithms of E_j, R1_j, R2_j for j = 0 .. M, shape (3, M + 1), where

        R^p_j = sum_{|T|=j} prod_{k in T} x_k (sum_{k not in T} c_k)**p

    (E = R^0, R1 = R^1, R2 = R^2).  One scan over the pairs with x_k > 0
    (the others add nothing): pair k either joins T, which multiplies the
    weight by x_k, or adds c_k to the sum r outside T, which expands
    (r + c)**p binomially.  With the old values on every right-hand side,

        E_j  += x E_{j-1}
        R1_j += c E_j + x R1_{j-1}
        R2_j += 2c R1_j + c**2 E_j + x R2_{j-1}.

    For c >= 0 every term is non-negative, so nothing cancels, and all three
    are carried as logarithms: e_M underflows a float long before K = 1000,
    and one step's entries can span more than the float range, so no common
    rescaling keeps them linear.
    """
    with np.errstate(divide="ignore"):  # log 0 = -inf, an empty sum
        log_x, log_c = np.log(x[x > 0]), np.log(c[x > 0])
    sums = np.full((3, M + 2), -np.inf)  # column 0 holds j = -1, always empty
    sums[0, 1] = 0.0
    for a, b in zip(log_x, log_c):
        binomial = np.array([[0.0, -np.inf, -np.inf], [b, 0.0, -np.inf],
                             [2.0 * b, np.log(2.0) + b, 0.0]])
        stepped = np.logaddexp.reduce(binomial[:, :, None] + sums[:, 1:], axis=1)
        sums[:, 1:] = np.logaddexp(stepped, a + sums[:, :-1])
    return sums[:, 1:]


def pair_expectation(lambdas, state_lambdas, M: int) -> float:
    """2 ||B Psi_M||^2 / ||Psi_M||^2 in O(K M), with no state built.

    B = sum_k mu_k b_k has the coefficients ``lambdas`` and
    Psi_M = (sum_k lam_k b*_k)^M |vacuum> those of ``state_lambdas``; both
    are per pair, and every c_k = lam_k mu_k must be non-negative.  Since
    Psi_M = M! sum_{|S|=M} prod_{k in S} lam_k |S>> and
    B |S>> = sum_{k in S} mu_k |S minus k>>, with x = lam**2,

        2 ||B Psi_M||^2 / ||Psi_M||^2
            = 2 sum_{|T|=M-1} prod_T x (sum_{k not in T} c_k)^2 / e_M(x),

    both sums read off :func:`_log_pair_sums`.  For phi with coefficients
    ``lambdas`` on the state's pairs this is <phi, G_Psi phi>.
    """
    mu = np.asarray(lambdas, dtype=np.float64)
    lam = np.asarray(state_lambdas, dtype=np.float64)
    if mu.ndim != 1 or mu.shape != lam.shape:
        raise SectorMismatchError("need one coefficient per pair of the state")
    if np.any(lam * mu < 0):
        raise ValueError("pair coefficient products must be non-negative")
    log_e, _, log_r2 = _log_pair_sums(lam ** 2, lam * mu, M)
    if log_e[M] == -np.inf:
        raise ValueError("cannot normalize the zero vector")
    return 2.0 * float(np.exp(log_r2[M - 1] - log_e[M])) if M else 0.0


def norm_sq_oracle(lambdas, M: int) -> float:
    """Exact ||Psi_M||^2 = (M!)^2 e_M(lam**2), independent of the Fock build.

    e_M comes from the log-form recurrence of :func:`_log_pair_sums`.
    Returns 0 when M exceeds the number of nonzero coefficients, and inf
    when the norm exceeds the float range.
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    if M < 0:
        raise ValueError("M must be non-negative")
    log_e = _log_pair_sums(lams ** 2, np.zeros_like(lams), M)[0, M]
    with np.errstate(over="ignore"):
        return float(np.exp(2.0 * lgamma(M + 1) + log_e))


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


def commutator_defect(op: PairOperator, N: int) -> float:
    """Max deviation of [B, B*] from 1 - sum_k lam_k**2 (n_up + n_down).

    Both sides are dense matrices on the (d, N) sector, with
    [B, B*] = B_{N+2} B_{N+2}^T - B_N^T B_N for B_n = ``dense_b_matrix(op, n)``;
    a term whose intermediate sector does not exist is zero.  Intended for
    d <= 8 where this is cheap.
    """
    sec = enumerate_sector(op.d, N)
    defect = np.diag(pair_number_diagonal(op, sec) - 1.0)
    if N + 2 <= op.d:
        up = dense_b_matrix(op, N + 2)
        defect += up @ up.T
    if N >= 2:
        down = dense_b_matrix(op, N)
        defect -= down.T @ down
    return float(np.max(np.abs(defect)))


def write_state_text(path, state: SectorVector) -> None:
    """Text export: header ``d N``, then ``mask re im`` per nonzero amplitude."""
    lines = [f"{state.basis.d} {state.basis.N}"]
    for i in np.nonzero(state.single())[0]:
        a = state.amplitudes[i]
        lines.append(f"{int(state.basis.states[i])} {float(a.real)!r} {float(a.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
