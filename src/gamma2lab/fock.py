"""Finite-dimensional fermionic Fock space on occupation bitstrings.

A single-particle space with ``d`` orbitals is addressed by the index range
``0..d-1``, with orbital 0 at the least significant bit of an occupation
mask.  The N-particle sector is spanned by the popcount-N masks listed in
ascending integer order.  Creation and annihilation follow the Jordan-Wigner
convention: acting on orbital ``i`` picks up ``(-1)**(number of occupied
orbitals below i)``, which makes the canonical anticommutation relations
exact at the bit level.

Pair ``k`` is orbital ``2k`` (up) and ``2k + 1`` (down).  Both members see
the same occupied orbitals below ``2k``, so the Jordan-Wigner signs of
``b_k = c_{2k+1} c_{2k}`` cancel and pair operators carry no sign.

Every operator is built from one primitive, the hop table of :func:`_hops`
that clears the bits of row masks of one popcount k <= 2 on the (d, n)
masks: for every mask s holding a row, the row, the position of s with the
row's bits cleared, the position of s itself and the Jordan-Wigner sign of
c_i (k = 1) or c_j c_i (k = 2, i < j).  One applier, :func:`_scatter`,
applies every signed operator along it: a weighted sum of such products,
given as ``(row, coef)`` terms, scattered term by term down one table or
up it for the adjoint.  The ``apply_*`` operators pass the rows ``1 << i``;
the pair operators of :mod:`gamma2lab.pairing` pass ``3 << 2k``, whose sign
is +1, and :mod:`gamma2lab.rdm` passes its pair annihilator as rows
``(1 << i) | (1 << j)``.  Three callers read tables without the applier:
the dense matrix of B writes the positions of one table of every pair; the
pairing states scatter without a sign, since b*_k carries none on their
pair-occupation basis while the table's is that of a single creator; and
the Gamma2 assembly of :mod:`gamma2lab.rdm` takes every single or pair of
the low orbitals at once and lays the table out in the blocks it reads
Gamma2 with.  Only rdm caches its tables, one per low sector; the applier
builds one row's table per term and drops it before the next term's is
built, so a table of a full sector holds one row's entries, not every
row's, and one such table is alive at a time.

All operations are pure functions; vectors are never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

DEFAULT_MAX_DIM = 24
DEFAULT_MAX_SECTOR = 3_000_000
MASK_CACHE = 64                   # occupation-mask arrays kept, one per (d, n)


class SectorSizeError(ValueError):
    """Requested basis exceeds the configured size caps."""


class SectorMismatchError(ValueError):
    """Operands belong to incompatible sectors or dimensions."""


@lru_cache(maxsize=MASK_CACHE)
def occupation_masks(d: int, n: int) -> np.ndarray:
    """All d-bit masks with popcount ``n``, ascending.

    Built by the recursion masks(k, m) = masks(k-1, m) ++ (masks(k-1, m-1)
    | 1 << (k-1)), a few array operations per orbital.  The masks without
    bit k-1 are all below those with it, so each step keeps the order.  Only
    the popcounts that can still reach ``n`` are carried.
    """
    if n < 0:
        raise ValueError(f"negative particle number {n}")
    empty = np.zeros(0, dtype=np.int64)
    level = [np.zeros(1, dtype=np.int64)] + [empty] * n
    for k in range(d):
        low = n - (d - k - 1)  # popcounts below this can no longer reach n
        level = [level[0]] + [  # and those above k + 1 are still empty
            np.concatenate((level[m], level[m - 1] | (1 << k))) if low <= m <= k + 1
            else empty for m in range(1, n + 1)]
    masks = level[n]
    masks.setflags(write=False)
    return masks


class SectorBasis:
    """Ordered occupation basis of the N-particle sector on d orbitals."""

    def __init__(self, d: int, N: int, states: np.ndarray):
        self.d = d
        self.N = N
        self.states = states

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, masks) -> np.ndarray:
        """Positions of the given masks in the sorted state list."""
        masks = np.asarray(masks, dtype=np.int64)
        idx = np.searchsorted(self.states, masks)
        if np.any(idx >= self.dim) or np.any(self.states[idx] != masks):
            raise SectorMismatchError("mask outside this sector")
        return idx

    def __repr__(self):
        return f"SectorBasis(d={self.d}, N={self.N}, dim={self.dim})"


def admit_sector(d: int, N: int) -> None:
    """Refuse a (d, N) sector by arithmetic, before anything is enumerated.

    Rejects N < 0, N > d, d above ``DEFAULT_MAX_DIM``, and sectors larger
    than ``DEFAULT_MAX_SECTOR`` states.  Caps are soft configuration, not
    physics.
    """
    if N < 0 or N > d:
        raise SectorSizeError(f"no (d={d}, N={N}) sector")
    if d < 1 or d > DEFAULT_MAX_DIM:
        raise SectorSizeError(f"d={d} outside the configured cap {DEFAULT_MAX_DIM}")
    if comb(d, N) > DEFAULT_MAX_SECTOR:
        raise SectorSizeError(
            f"sector (d={d}, N={N}) has {comb(d, N)} states, "
            f"cap is {DEFAULT_MAX_SECTOR}")


def enumerate_sector(d: int, N: int) -> SectorBasis:
    """Basis of the (d, N) sector over the cached masks of that sector,
    refused first by :func:`admit_sector`."""
    admit_sector(d, N)
    return SectorBasis(d, N, occupation_masks(d, N))


@dataclass
class SectorVector:
    """Complex amplitude vector over one sector's occupation basis.

    ``amplitudes`` may also be a stack (B, dim) of B vectors over the basis,
    as a seeded sweep draws a batch of states: :meth:`norm_sq`,
    :func:`occupations` and :func:`rdm.compute_gamma2` read every vector of
    a stack; the other methods and operators take one vector and raise
    :class:`SectorMismatchError` on a stack.
    """

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim not in (1, 2) or amps.shape[-1] != self.basis.dim:
            raise SectorMismatchError(
                f"amplitude length {amps.shape} does not match sector dim {self.basis.dim}")
        self.amplitudes = amps

    def single(self) -> np.ndarray:
        """The amplitudes of a single vector; a stack raises."""
        if self.amplitudes.ndim != 1:
            raise SectorMismatchError("this operation takes one vector, not a stack")
        return self.amplitudes

    def norm(self) -> float:
        return float(np.linalg.norm(self.single()))

    def norm_sq(self) -> np.ndarray:
        """<v, v> of the vector, or of each vector of a stack, by one ``vdot``
        each; shape ``amplitudes.shape[:-1]``."""
        rows = self.amplitudes.reshape(-1, self.basis.dim)
        return np.array([np.vdot(a, a).real for a in rows]).reshape(self.amplitudes.shape[:-1])

    def normalized(self) -> "SectorVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return SectorVector(self.basis, self.amplitudes / n)

    def inner(self, other: "SectorVector") -> complex:
        """Hermitian inner product <self, other> (conjugate on self)."""
        self._check_same_sector(other)
        return complex(np.vdot(self.single(), other.single()))

    def _check_same_sector(self, other: "SectorVector"):
        if (self.basis.d, self.basis.N) != (other.basis.d, other.basis.N):
            raise SectorMismatchError("vectors live in different sectors")

    def __add__(self, other):
        self._check_same_sector(other)
        return SectorVector(self.basis, self.amplitudes + other.amplitudes)

    def __sub__(self, other):
        self._check_same_sector(other)
        return SectorVector(self.basis, self.amplitudes - other.amplitudes)

    def __mul__(self, scalar):
        return SectorVector(self.basis, self.amplitudes * scalar)

    __rmul__ = __mul__


def vacuum_state(d: int) -> SectorVector:
    """The single basis vector of the zero-particle sector."""
    return SectorVector(enumerate_sector(d, 0), np.ones(1, dtype=np.complex128))


def basis_state(d: int, mask: int) -> SectorVector:
    """Unit amplitude on one occupation mask."""
    N = int(mask).bit_count()
    sec = enumerate_sector(d, N)
    amps = np.zeros(sec.dim, dtype=np.complex128)
    amps[sec.index_of([mask])[0]] = 1.0
    return SectorVector(sec, amps)


def slater_state(d: int, orbitals) -> SectorVector:
    """Slater determinant occupying the given orbitals (amplitude +1)."""
    mask = 0
    for o in orbitals:
        if mask & (1 << o):
            raise ValueError(f"orbital {o} listed twice")
        mask |= 1 << o
    return basis_state(d, mask)


def _hops(d: int, n: int, rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The hop table that clears the bits of each mask of ``rows``, all of
    one popcount k <= 2, on the (d, n) masks: ``(row, cleared, src, sign)``.

    For every popcount-n mask s holding the bits of ``rows[r]``, ``row`` is
    r, ``cleared`` the position of s with those bits cleared in
    ``occupation_masks(d, n - k)``, ``src`` the position of s in
    ``occupation_masks(d, n)`` and ``sign`` the Jordan-Wigner sign of
    clearing them as ``float64``: (-1)**pop(s below i) for c_i, and
    (-1)**(pop(s below i) + pop(s below j) - 1) for c_j c_i, i < j, which
    is +1 for a pair (2k, 2k + 1).  Entries come row by row, ``cleared``
    ascending.

    Every row is tested on every mask t of ``occupation_masks(d, n - k)``
    and every mask s of ``occupation_masks(d, n)`` at once: t is in the
    table when it misses the row's bits, s when it holds them, and as
    s = t | row keeps t's order, the i-th t and the i-th s of a row pair up.
    The two tests have len(rows) x (C(d, n-k) + C(d, n)) entries.
    """
    k = int(rows[0]).bit_count() if len(rows) else 0
    masks = occupation_masks(d, n)
    free = occupation_masks(d, n - k) if n >= k else masks[:0]
    hits = np.flatnonzero((free & rows[:, None]) == 0)
    row = hits // max(len(free), 1)
    src = np.flatnonzero((masks & rows[:, None]) == rows[:, None]) - row * len(masks)
    held, s = rows[row], masks[src]
    low = held & -held  # orbital i; for k = 2, held ^ low is orbital j
    parity = np.bitwise_count(s & (low - 1))
    if k == 2:
        parity += np.bitwise_count(s & ((held ^ low) - 1)) + 1
    return row, hits - row * len(free), src, 1.0 - 2.0 * (parity & 1)


def _scatter(vec: SectorVector, terms, k: int, create: bool) -> SectorVector:
    """sum of coef * a vec over the ``(row, coef)`` terms, a the product of
    the annihilators of the row's k bits (c_i for ``1 << i``, c_j c_i for
    ``(1 << i) | (1 << j)``, i < j), or of coef * a* vec (``create``).

    Each nonzero term scatters along the one-row table of :func:`_hops`,
    with its sign; the result lives k sectors up or down.
    """
    basis, amps = vec.basis, vec.single()
    N = basis.N + (k if create else -k)
    if not 0 <= N <= basis.d:
        raise SectorMismatchError(f"no (d={basis.d}, N={N}) sector to map into")
    target = enumerate_sector(basis.d, N)
    out = np.zeros(target.dim, dtype=np.complex128)
    for row, coef in terms:
        if coef:
            _, cleared, held, signs = _hops(basis.d, max(basis.N, N), np.array([row]))
            dst, src = (held, cleared) if create else (cleared, held)
            out[dst] += coef * signs * amps[src]
            del cleared, held, signs, dst, src  # before the next term's table is built
    return SectorVector(target, out)


def _check_orbital(orbital: int, basis: SectorBasis) -> None:
    if not 0 <= orbital < basis.d:
        raise SectorMismatchError(f"orbital {orbital} outside 0..{basis.d - 1}")


def _coefficient_terms(coeffs, basis: SectorBasis) -> list:
    """``(1 << orbital, coef)`` for the entries of a finite length-d vector."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (basis.d,):
        raise SectorMismatchError("coefficient vector has wrong length")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients must be finite")
    return [(1 << i, c) for i, c in enumerate(coeffs)]


def apply_create(orbital: int, vec: SectorVector) -> SectorVector:
    """Creation operator on one orbital, (d, N) -> (d, N+1)."""
    _check_orbital(orbital, vec.basis)
    return _scatter(vec, [(1 << orbital, 1)], 1, create=True)


def apply_annihilate(orbital: int, vec: SectorVector) -> SectorVector:
    """Annihilation operator on one orbital, (d, N) -> (d, N-1).

    Adjoint of :func:`apply_create`: <w, c_i v> = <c*_i w, v>.
    """
    _check_orbital(orbital, vec.basis)
    return _scatter(vec, [(1 << orbital, 1)], 1, create=False)


def apply_create_vector(coeffs, vec: SectorVector) -> SectorVector:
    """Creation of the single-particle state sum_i coeffs[i] e_i (linear)."""
    return _scatter(vec, _coefficient_terms(coeffs, vec.basis), 1, create=True)


def apply_annihilate_vector(coeffs, vec: SectorVector) -> SectorVector:
    """Annihilation of sum_i coeffs[i] e_i; conjugate-linear in coeffs."""
    return _scatter(vec, _coefficient_terms(np.conj(coeffs), vec.basis), 1, create=False)


def occupations(vec: SectorVector) -> np.ndarray:
    """Expected occupations <n_i> of all d orbitals of a (nonzero) sector
    vector, shape (d,), or of each vector of a stack, shape (B, d).

    One pass over slices of 2**(d // 2) basis states adds each slice's
    weights |psi|**2 times its occupation table (mask bit i set), so no
    temporary grows with the sector.  Each vector's weights are one row
    times the table, so a vector of a stack gets the same bits as alone.
    """
    nsq = vec.norm_sq()
    if np.any(nsq == 0.0):
        raise ValueError("zero vector has no occupation expectation")
    d, step = vec.basis.d, 1 << vec.basis.d // 2
    total = np.zeros(nsq.shape + (d,))
    for start in range(0, vec.basis.dim, step):
        bits = (vec.basis.states[start:start + step, None] & 1 << np.arange(d)) != 0
        weights = np.abs(vec.amplitudes[..., None, start:start + step]) ** 2
        total += np.matmul(weights, bits)[..., 0, :]
    return total / nsq[..., None]


def number_expectation(vec: SectorVector) -> float:
    """Total-number expectation of a nonzero sector vector.

    Every basis mask of the (d, N) sector has popcount N, so the sector is an
    eigenspace of the total number operator and the expectation is N exactly.
    """
    if vec.norm() == 0.0:
        raise ValueError("zero vector has no number expectation")
    return float(vec.basis.N)

