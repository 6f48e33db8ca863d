"""Canonical pair form of antisymmetric two-particle tensors.

A two-particle state F in the wedge square of C^d is stored as a complex
antisymmetric matrix A through F = sum_ij A[i, j] e_i (x) e_j, so that the
tensor norm equals the Frobenius norm of A.  With the elementary wedge
convention

    u ^ v = (u (x) v - v (x) u) / sqrt(2),

every normalized F admits a canonical form F = sum_k lam_k u_k ^ v_k with
mutually orthonormal vectors u_k, v_k and descending coefficients
lam_k >= 0, sum lam_k**2 = 1.  In matrix terms each pair contributes a
2 x 2 block [[0, lam/sqrt(2)], [-lam/sqrt(2), 0]] in the (u_k, v_k) plane,
so the singular values of A are the numbers lam_k / sqrt(2), each doubled.

The delocalization of the coefficients, summarized by sum lam_k**4, serves
as the correlation measure used by the bound verifiers.

Any rotation of u_k, v_k within their plane leaves u_k ^ v_k unchanged,
so only the pair planes are determined.  :func:`plane_minima` works on
those alone: one batched singular value decomposition of a stack of
coefficient matrices gives every plane, with no u_k, v_k built, and the
minimum of a Hermitian form over each.  :func:`youla_decompose` builds an
explicit canonical form of one tensor, cluster by cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fock import (DEFAULT_MAX_SECTOR, SectorMismatchError, SectorSizeError,
                   SectorVector, enumerate_sector)

LAMBDA_DROP_TOL = 1e-12
NORM_TOL = 1e-8
CLUSTER_RTOL = 1e-8
REPAIR_TOL = 1e-13  # Gram defect above roundoff, repaired by Gram-Schmidt


class NotAntisymmetricError(ValueError):
    """Input matrix is not antisymmetric to the required tolerance."""


class NotNormalizedError(ValueError):
    """Input tensor does not have unit norm."""


class DecompositionError(RuntimeError):
    """The spectral routine failed to produce a canonical form."""


@lru_cache(maxsize=32)
def wedge_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(d, 1)``: the pairs (i, j), i < j, of the wedge basis
    in row-major order, cached per d and read-only."""
    index = np.triu_indices(d, 1)
    for part in index:
        part.setflags(write=False)
    return index


@dataclass
class AntisymmetricTensor:
    """Complex antisymmetric d x d coefficient matrix (exactly A.T == -A)."""

    d: int
    mat: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.mat, dtype=np.complex128)
        if mat.shape != (self.d, self.d):
            raise SectorMismatchError("matrix shape does not match d")
        if not np.array_equal(mat, -mat.T):
            raise NotAntisymmetricError("matrix is not exactly antisymmetric")
        self.mat = mat

    def norm(self) -> float:
        """The Frobenius norm, inf when it exceeds the float range."""
        with np.errstate(over="ignore"):
            return float(np.linalg.norm(self.mat))

    def normalized(self) -> "AntisymmetricTensor":
        """This tensor over its norm.  When the norm underflows to 0 or
        overflows, the matrix is first divided by its largest entry modulus,
        which keeps it exactly antisymmetric.  That division is done on the
        real and imaginary parts: a complex quotient by 1e-320 overflows."""
        mat, n = self.mat, self.norm()
        if not 0.0 < n < np.inf and mat.any():
            mat = (mat.view(np.float64) / np.abs(mat).max()).view(np.complex128)
            n = float(np.linalg.norm(mat))
        if n == 0.0:
            raise ValueError("cannot normalize the zero tensor")
        return AntisymmetricTensor(self.d, mat / n)

    def wedge_amplitudes(self) -> np.ndarray:
        """Coefficients on the wedge basis e_i ^ e_j, i < j (value sqrt(2) A[i, j])."""
        iu, ju = wedge_index(self.d)
        return np.sqrt(2.0) * self.mat[iu, ju]


def wedge_matrices(d: int, amps) -> np.ndarray:
    """Coefficient matrices of wedge amplitude vectors, the inverse of
    :meth:`AntisymmetricTensor.wedge_amplitudes`.

    ``amps`` of shape (P,) gives one (d, d) matrix; shape (P, n) gives a
    stack (n, d, d) whose k-th matrix comes from column k.  Every matrix is
    exactly antisymmetric.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    iu, ju = wedge_index(d)
    if amps.ndim not in (1, 2) or amps.shape[0] != len(iu):
        raise SectorMismatchError("wedge amplitude vector has wrong length")
    mats = np.zeros(amps.shape[1:] + (d, d), dtype=np.complex128)
    mats[..., iu, ju] = amps.T / np.sqrt(2.0)
    mats[..., ju, iu] = -mats[..., iu, ju]
    return mats


def elementary_wedge(d: int, i: int, j: int) -> AntisymmetricTensor:
    """The normalized elementary tensor e_i ^ e_j."""
    if not 0 <= i < j < d:
        raise ValueError("need 0 <= i < j < d")
    upper = np.zeros((d, d), dtype=np.complex128)
    upper[i, j] = 1.0 / np.sqrt(2.0)
    return AntisymmetricTensor(d, upper - upper.T)


def random_tensor(d: int, rng: np.random.Generator) -> AntisymmetricTensor:
    """Normalized tensor with Gaussian entries, antisymmetrized."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    upper = np.triu(g - g.T, 1)
    a = upper - upper.T
    return AntisymmetricTensor(d, a / np.linalg.norm(a))


def tensor_inner(a: AntisymmetricTensor, b: AntisymmetricTensor) -> complex:
    """Hermitian inner product of two tensors (conjugate on the first)."""
    if a.d != b.d:
        raise SectorMismatchError("tensors live in different dimensions")
    return complex(np.vdot(a.mat, b.mat))


@dataclass
class CanonicalForm:
    """Descending coefficients lam_k with paired orthonormal columns.

    ``vectors`` has 2K columns alternating u_1, v_1, u_2, v_2, ...
    """

    lambdas: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=np.float64)
        vecs = np.ascontiguousarray(self.vectors, dtype=np.complex128)
        if vecs.ndim != 2 or vecs.shape[1] != 2 * len(lams):
            raise SectorMismatchError("need two columns per coefficient")
        # every comparison below is false for NaN, so test finiteness first
        if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(vecs))):
            raise ValueError("canonical form has non-finite entries")
        if np.any(lams < -1e-14) or np.any(np.diff(lams) > 1e-12):
            raise ValueError("coefficients must be non-negative and descending")
        gram = vecs.conj().T @ vecs
        if gram.size and np.max(np.abs(gram - np.eye(len(gram)))) > 1e-7:
            raise ValueError("canonical vectors are not orthonormal")
        self.lambdas = lams
        self.vectors = vecs

    @property
    def n_pairs(self) -> int:
        return len(self.lambdas)

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    def u(self, k: int) -> np.ndarray:
        return self.vectors[:, 2 * k]

    def v(self, k: int) -> np.ndarray:
        return self.vectors[:, 2 * k + 1]


def canonical_from_lambdas(lambdas) -> CanonicalForm:
    """Canonical form aligned with the standard pair layout u_k = e_2k,
    v_k = e_2k+1, on d = 2 * len(lambdas) orbitals."""
    lams = np.asarray(lambdas, dtype=np.float64)
    return CanonicalForm(lams, np.eye(2 * len(lams), dtype=np.complex128))


def check_unit_norms(mats: np.ndarray) -> None:
    """Raise :class:`NotNormalizedError` unless every matrix of the stack
    (n, d, d) has Frobenius norm 1 within ``NORM_TOL``; a NaN norm fails."""
    # |a|**2, not np.linalg.norm: its complex product warns on an inf entry
    norms = np.sqrt(np.sum(np.abs(mats) ** 2, axis=(1, 2)))
    ok = np.abs(norms - 1.0) <= NORM_TOL  # false for NaN
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise NotNormalizedError(
            f"tensor norm {float(norms[k])!r} is not 1 within {NORM_TOL:.1e}")


def _svd(a: np.ndarray):
    try:
        return np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("singular value decomposition did not converge") from exc


def pair_clusters(sigmas) -> tuple[np.ndarray, np.ndarray]:
    """Pairs and their clusters in a stack (n, d) of descending singular values.

    The values above ``LAMBDA_DROP_TOL / sqrt(2)`` are kept; those of an
    antisymmetric matrix come in equal pairs, so at least two and an even
    number must be.  Kept values are grouped where consecutive ones differ
    by more than ``CLUSTER_RTOL`` times the largest, and a cluster of odd
    size is merged with the next, so that a pair never straddles a
    boundary: the boundaries left are exactly those at even positions.
    Returns the pair counts (n,) and ``starts`` (n, d // 2), true where
    pair k is the first of a cluster.
    """
    sigmas = np.asarray(sigmas)
    kept = np.sum(sigmas > LAMBDA_DROP_TOL / np.sqrt(2.0), axis=1)
    if np.any(kept < 2):
        raise DecompositionError("no singular pair above the truncation floor")
    if np.any(kept % 2):
        raise DecompositionError(
            "singular values do not pair up; input is not antisymmetric enough")
    k = np.arange(sigmas.shape[1] // 2)
    gap = sigmas[:, 2 * k - 1] - sigmas[:, 2 * k] > CLUSTER_RTOL * sigmas[:, :1]
    return kept // 2, (k < kept[:, None] // 2) & (gap | (k == 0))


def plane_minima(mats, gamma1) -> tuple[np.ndarray, np.ndarray]:
    """Minimum of the form x^T gamma1 conj(x) over the unit vectors x of each
    pair plane, for a stack (n, d, d) of unit antisymmetric matrices and a
    Hermitian (d, d) ``gamma1``, or a stack (n, d, d) of them, one per
    matrix, from one batched singular value decomposition.

    Pair k of A = sum_k lam_k u_k ^ v_k spans the plane of u_k and v_k,
    which no rotation of the pair within it changes.  Its two rows of
    ``vh``, the conjugated eigenvectors of A^H A, span the same plane, so
    the minimum there is the smaller eigenvalue of the 2 x 2 compression
    W gamma1 W^H onto those rows, taken in closed form for all pairs at
    once.  A cluster of several pairs (see :func:`pair_clusters`), a tie, is
    one space: its minimum is the smallest eigenvalue of its compression,
    from ``eigvalsh`` member by member.  Returns ``(lambdas, minima)``, both
    (n, d // 2): at the first pair of each cluster, the smallest lam of the
    cluster and the minimum; at its other pairs, and past the member's last
    pair, 0 and +inf.
    """
    a = np.asarray(mats, dtype=np.complex128)
    check_unit_norms(a)
    _, sigmas, vh = _svd(a)
    n_pairs, starts = pair_clusters(sigmas)
    w = vh[:, :2 * starts.shape[1]]
    wg = np.matmul(w, gamma1)  # row j: w_j^T gamma1
    diag = np.einsum("nji,nji->nj", wg, w.conj()).real
    off = np.einsum("nki,nki->nk", wg[:, 0::2], w[:, 1::2].conj())
    mean = 0.5 * (diag[:, 0::2] + diag[:, 1::2])
    minima = mean - np.hypot(0.5 * (diag[:, 0::2] - diag[:, 1::2]), np.abs(off))
    lambdas = np.sqrt(2.0) * sigmas[:, 1:w.shape[1]:2]
    for m in np.flatnonzero(np.sum(starts, axis=1) < n_pairs):
        first = np.flatnonzero(starts[m]).tolist()
        for lo, hi in zip(first, first[1:] + [int(n_pairs[m])]):
            rows = slice(2 * lo, 2 * hi)
            minima[m, lo] = np.linalg.eigvalsh(wg[m, rows] @ w[m, rows].conj().T)[0]
            lambdas[m, lo] = lambdas[m, hi - 1]
    minima[~starts] = np.inf
    lambdas[~starts] = 0.0
    return lambdas, minima


def youla_decompose(tensor: AntisymmetricTensor) -> CanonicalForm:
    """Canonical pair decomposition of a normalized antisymmetric tensor."""
    check_unit_norms(tensor.mat[None])
    return CanonicalForm(*_decompose_clusters(tensor.mat))


def _decompose_clusters(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical coefficients and vectors of one unit matrix, cluster by cluster.

    Within each cluster of :func:`pair_clusters`, a right-singular vector v
    picks its partner as the normalized image of conj(v) under A; both
    directions are then deflated from the cluster.  Coefficients below
    ``LAMBDA_DROP_TOL`` are discarded.
    """
    _, sigmas, vh = _svd(a)
    n_pairs, starts = pair_clusters(sigmas[None])
    first = np.flatnonzero(starts[0]).tolist()
    sigma_floor = LAMBDA_DROP_TOL / np.sqrt(2.0)

    lams: list[float] = []
    cols: list[np.ndarray] = []
    for lo, hi in zip(first, first[1:] + [int(n_pairs[0])]):
        block = vh[2 * lo:2 * hi].T
        while block.shape[1]:
            v = block[:, 0]
            image = a @ np.conj(v)
            s = float(np.linalg.norm(image))
            if s <= sigma_floor:
                break
            u = image / s
            u = u - v * np.vdot(v, u)
            u = u / np.linalg.norm(u)
            lams.append(np.sqrt(2.0) * s)
            cols.append(u)
            cols.append(v)
            rest = block[:, 1:]
            rest = rest - np.outer(u, u.conj() @ rest)
            q, sv, _ = np.linalg.svd(rest, full_matrices=False)
            block = q[:, sv > 0.5]

    order = np.argsort(-np.asarray(lams), kind="stable")
    vectors = np.empty((a.shape[0], 2 * len(lams)), dtype=np.complex128)
    for pos, k in enumerate(order):
        vectors[:, 2 * pos] = cols[2 * k]
        vectors[:, 2 * pos + 1] = cols[2 * k + 1]
    # Partners found in a merged cluster of tiny singular values are accurate
    # only to about eps * sigma_max / sigma, and singular vectors of near-tied
    # clusters to about eps / gap; Gram-Schmidt repairs both.  Columns
    # orthonormal to roundoff are kept bit for bit.
    gram = vectors.conj().T @ vectors
    if np.max(np.abs(gram - np.eye(len(gram)))) > REPAIR_TOL:
        vectors = _orthonormalize(vectors)
    return np.asarray(lams)[order], vectors


def _orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the columns in their order: QR with the phases of
    diag(R) put back, so order and phases are kept."""
    q, r = np.linalg.qr(vectors)
    return q * np.exp(1j * np.angle(np.diag(r)))


def reconstruct(form: CanonicalForm) -> AntisymmetricTensor:
    """Materialize sum_k lam_k u_k ^ v_k as an antisymmetric matrix."""
    a = np.zeros((form.d, form.d), dtype=np.complex128)
    for k in range(form.n_pairs):
        s = form.lambdas[k] / np.sqrt(2.0)
        u, v = form.u(k), form.v(k)
        a += s * (np.outer(u, v) - np.outer(v, u))
    a = 0.5 * (a - a.T)
    return AntisymmetricTensor(form.d, a)


class CorrelationMeasures(NamedTuple):
    sum_lambda4: float
    lambda_max: float
    participation: float


def correlation_measures(form: CanonicalForm) -> CorrelationMeasures:
    """Delocalization summary of the canonical coefficients.

    ``participation`` = 1 / sum lam**4 counts the effective number of pairs
    carrying the tensor's weight.
    """
    lams = form.lambdas
    s4 = float(np.sum(lams ** 4))
    lmax = float(lams[0]) if len(lams) else 0.0
    return CorrelationMeasures(s4, lmax, 1.0 / s4 if s4 > 0 else np.inf)


def embed_as_sector_vector(tensor: AntisymmetricTensor) -> SectorVector:
    """Express a two-particle tensor in the (d, 2) occupation sector.

    The amplitude on the mask occupying orbitals i < j is sqrt(2) A[i, j],
    matching the convention e_i ^ e_j = c*_i c*_j |vacuum>.
    """
    sec = enumerate_sector(tensor.d, 2)
    iu, ju = wedge_index(tensor.d)
    masks = (1 << iu.astype(np.int64)) | (1 << ju.astype(np.int64))
    amps = np.zeros(sec.dim, dtype=np.complex128)
    amps[sec.index_of(masks)] = np.sqrt(2.0) * tensor.mat[iu, ju]
    return SectorVector(sec, amps)


def write_tensor_text(path, tensor: AntisymmetricTensor) -> None:
    """Text form: header line ``d``, then ``i j re im`` per strictly-upper entry."""
    lines = [str(tensor.d)]
    iu, ju = wedge_index(tensor.d)
    for i, j in zip(iu.tolist(), ju.tolist()):
        val = tensor.mat[i, j]
        if val != 0:
            lines.append(f"{i} {j} {float(val.real)!r} {float(val.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_tensor_text(path) -> AntisymmetricTensor:
    """Parse the text form written by :func:`write_tensor_text`.

    The tensor is a vector of the (d, 2) sector, so a header d whose
    C(d, 2) exceeds ``fock.DEFAULT_MAX_SECTOR`` (d > 2449) is refused with
    :class:`SectorSizeError` before any array is allocated.  Every other
    refusal is a ValueError naming the line and its text.
    """
    raw = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [(n, ln.strip()) for n, ln in enumerate(raw, start=1)]
    rows = [(n, ln) for n, ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty tensor file")
    (n, head), entries = rows[0], rows[1:]
    try:
        d = int(head)
    except ValueError:
        d = -1
    if d < 0:
        raise ValueError(f"line {n} is not a dimension d >= 0: {head!r}")
    if comb(d, 2) > DEFAULT_MAX_SECTOR:
        raise SectorSizeError(f"tensor of d={d} has {comb(d, 2)} wedge entries, "
                              f"cap is {DEFAULT_MAX_SECTOR}")
    upper = np.zeros((d, d), dtype=np.complex128)
    seen = set()
    for n, ln in entries:
        try:  # i j re im: two integer indices and two reals
            i, j, re_part, im_part = ln.split()
            i, j, val = int(i), int(j), complex(float(re_part), float(im_part))
        except ValueError:  # a wrong field count, too
            raise ValueError(f"malformed tensor line {n}: {ln!r}") from None
        if not 0 <= i < j < d:
            raise ValueError(f"line {n} has entry ({i}, {j}), not strictly upper "
                             f"for d={d}: {ln!r}")
        if (i, j) in seen:
            raise ValueError(f"line {n} repeats entry ({i}, {j}): {ln!r}")
        seen.add((i, j))
        if not np.isfinite(val):
            raise ValueError(f"line {n} has a non-finite value: {ln!r}")
        upper[i, j] = val
    return AntisymmetricTensor(d, upper - upper.T)
