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

Every operator is built from one primitive, the hop table that clears the
bits of a mask: ``cols`` lists the positions of the popcount-n masks
holding all of them, ``rows`` the positions of the same masks with them
cleared.  Creation scatters along the same table in the other direction.
The mask is ``1 << i`` for the fermion operators, which attach the
Jordan-Wigner sign to each entry, ``3 << 2k`` for pair k on a full sector,
``1 << k`` for pair k on the pair-occupation bases of
:mod:`gamma2lab.pairing`, and one or two low orbitals for the tables that
:mod:`gamma2lab.rdm` reads Gamma2 blocks with.  Only the signed tables of the
``apply_*`` operators are cached here, per (d, n, orbital) in a bounded LRU
cache; pair hop tables are rebuilt on each use, and the tables that
:mod:`gamma2lab.pairing` and :mod:`gamma2lab.rdm` build are cached there.

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
HOP_CACHE = DEFAULT_MAX_DIM       # signed hop tables kept, one sector's orbitals


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
    a stack; the other methods and operators take one vector.
    """

    basis: SectorBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim not in (1, 2) or amps.shape[-1] != self.basis.dim:
            raise SectorMismatchError(
                f"amplitude length {amps.shape} does not match sector dim {self.basis.dim}")
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

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
        return complex(np.vdot(self.amplitudes, other.amplitudes))

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


def _hops(d: int, n: int, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Hop table ``(rows, cols)`` that clears every bit of the mask ``bits``.

    ``cols`` lists the positions in ``occupation_masks(d, n)`` of the masks
    holding all of ``bits``; ``rows`` the positions in
    ``occupation_masks(d, n - popcount(bits))`` of the same masks with those
    bits cleared.  Both are read-only.
    """
    src = occupation_masks(d, n)
    cols = np.flatnonzero((src & bits) == bits)
    rows = np.searchsorted(occupation_masks(d, n - bits.bit_count()),
                           src[cols] ^ bits)
    for table in (rows, cols):
        table.setflags(write=False)
    return rows, cols


@lru_cache(maxsize=HOP_CACHE)
def _fermion_hops(d: int, n: int,
                  orbital: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_hops` of one orbital plus the Jordan-Wigner sign of each entry
    as ``int8``.

    The sign is (-1)**(occupied orbitals below ``orbital``), the same for the
    annihilator on the ``cols`` mask and the creator on the ``rows`` mask.
    """
    rows, cols = _hops(d, n, 1 << orbital)
    below = occupation_masks(d, n)[cols] & ((1 << orbital) - 1)
    signs = 1 - 2 * (np.bitwise_count(below) & 1).astype(np.int8)
    signs.setflags(write=False)
    return rows, cols, signs


def _scatter(vec: SectorVector, terms, create: bool) -> SectorVector:
    """sum of coef * c*_orbital vec (``create``) or coef * c_orbital vec.

    ``terms`` lists ``(orbital, coef)``; the result lives one sector up or
    down.
    """
    basis = vec.basis
    if create and basis.N + 1 > basis.d:
        raise SectorMismatchError("sector is already full")
    if not create and basis.N < 1:
        raise SectorMismatchError("cannot annihilate in the vacuum sector")
    n = basis.N + 1 if create else basis.N
    target = enumerate_sector(basis.d, basis.N + (1 if create else -1))
    out = np.zeros(target.dim, dtype=np.complex128)
    for orbital, coef in terms:
        rows, cols, signs = _fermion_hops(basis.d, n, orbital)
        dst, src = (cols, rows) if create else (rows, cols)
        out[dst] += coef * signs * vec.amplitudes[src]
    return SectorVector(target, out)


def _check_orbital(orbital: int, basis: SectorBasis) -> None:
    if not 0 <= orbital < basis.d:
        raise SectorMismatchError(f"orbital {orbital} outside 0..{basis.d - 1}")


def _coefficient_terms(coeffs, basis: SectorBasis) -> list:
    """``(orbital, coef)`` for the nonzero entries of a length-d vector."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (basis.d,):
        raise SectorMismatchError("coefficient vector has wrong length")
    return [(int(i), coeffs[i]) for i in np.flatnonzero(np.abs(coeffs) > 0)]


def apply_create(orbital: int, vec: SectorVector) -> SectorVector:
    """Creation operator on one orbital, (d, N) -> (d, N+1)."""
    _check_orbital(orbital, vec.basis)
    return _scatter(vec, [(orbital, 1)], create=True)


def apply_annihilate(orbital: int, vec: SectorVector) -> SectorVector:
    """Annihilation operator on one orbital, (d, N) -> (d, N-1).

    Adjoint of :func:`apply_create`: <w, c_i v> = <c*_i w, v>.
    """
    _check_orbital(orbital, vec.basis)
    return _scatter(vec, [(orbital, 1)], create=False)


def apply_create_vector(coeffs, vec: SectorVector) -> SectorVector:
    """Creation of the single-particle state sum_i coeffs[i] e_i (linear)."""
    return _scatter(vec, _coefficient_terms(coeffs, vec.basis), create=True)


def apply_annihilate_vector(coeffs, vec: SectorVector) -> SectorVector:
    """Annihilation of sum_i coeffs[i] e_i; conjugate-linear in coeffs."""
    terms = _coefficient_terms(coeffs, vec.basis)
    return _scatter(vec, [(i, np.conj(c)) for i, c in terms], create=False)


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

