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

Decompositions run on stacks: :func:`canonical_forms` takes n coefficient
matrices, runs one batched singular value decomposition and builds the
pairs of every matrix whose singular values pair up cleanly in bulk; only
degenerate or ill-separated matrices go through the per-matrix cluster
loop.  :func:`youla_decompose` is the same core on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .fock import SectorMismatchError, SectorVector, enumerate_sector

LAMBDA_DROP_TOL = 1e-12
NORM_TOL = 1e-8
ANTISYM_TOL = 1e-12
CLUSTER_RTOL = 1e-8
ORTHO_TOL = 1e-10   # Gram defect that sends a member from the bulk path to the loop
REPAIR_TOL = 1e-13  # Gram defect above roundoff, repaired by Gram-Schmidt on both paths


class NotAntisymmetricError(ValueError):
    """Input matrix is not antisymmetric to the required tolerance."""


class NotNormalizedError(ValueError):
    """Input tensor does not have unit norm."""


class DecompositionError(RuntimeError):
    """The spectral routine failed to produce a canonical form."""


def wedge_pairs(d: int) -> tuple[tuple[int, int], ...]:
    """Ordered-pair index list (i, j), i < j, row-major."""
    iu, ju = np.triu_indices(d, 1)
    return tuple((int(i), int(j)) for i, j in zip(iu, ju))


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

    @classmethod
    def from_matrix(cls, mat, *, atol: float = ANTISYM_TOL) -> "AntisymmetricTensor":
        """Validate near-antisymmetry, then store the exact upper-triangle form."""
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise SectorMismatchError("need a square matrix")
        defect = float(np.max(np.abs(mat + mat.T))) if mat.size else 0.0
        if defect > atol:
            raise NotAntisymmetricError(
                f"antisymmetry defect {defect:.3e} exceeds {atol:.1e}")
        upper = np.triu(mat, 1)
        return cls(mat.shape[0], upper - upper.T)

    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def normalized(self) -> "AntisymmetricTensor":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero tensor")
        return AntisymmetricTensor(self.d, self.mat / n)

    def wedge_amplitudes(self) -> np.ndarray:
        """Coefficients on the wedge basis e_i ^ e_j, i < j (value sqrt(2) A[i, j])."""
        iu, ju = np.triu_indices(self.d, 1)
        return np.sqrt(2.0) * self.mat[iu, ju]


def wedge_matrices(d: int, amps) -> np.ndarray:
    """Coefficient matrices of wedge amplitude vectors, the inverse of
    :meth:`AntisymmetricTensor.wedge_amplitudes`.

    ``amps`` of shape (P,) gives one (d, d) matrix; shape (P, n) gives a
    stack (n, d, d) whose k-th matrix comes from column k.  Every matrix is
    exactly antisymmetric.
    """
    amps = np.asarray(amps, dtype=np.complex128)
    iu, ju = np.triu_indices(d, 1)
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


def _check_forms(lams: np.ndarray, vecs: np.ndarray, n_pairs: np.ndarray) -> None:
    """Validate a padded stack of canonical forms (see :class:`CanonicalForms`).

    Entries must be finite, coefficients non-negative and descending, and the
    2 n_pairs live columns of every member orthonormal.
    """
    # every comparison below is false for NaN, so test finiteness first
    if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(vecs))):
        raise ValueError("canonical form has non-finite entries")
    if lams.size and (np.any(lams < -1e-14) or np.any(np.diff(lams, axis=-1) > 1e-12)):
        raise ValueError("coefficients must be non-negative and descending")
    width = vecs.shape[-1]
    live = np.arange(width) < 2 * np.asarray(n_pairs)[:, None]
    gram = np.matmul(vecs.conj().transpose(0, 2, 1), vecs)
    if gram.size and np.max(np.abs(gram - live[:, :, None] * np.eye(width))) > 1e-7:
        raise ValueError("canonical vectors are not orthonormal")


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
        _check_forms(lams[None], vecs[None], np.array([len(lams)]))
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


class CanonicalForms(NamedTuple):
    """Canonical forms of a stack of n tensors, zero-padded to a common K.

    Member m has ``n_pairs[m]`` pairs: ``lambdas[m, :n_pairs[m]]`` descending
    and the first 2 n_pairs[m] columns of ``vectors[m]``, alternating u_k,
    v_k as in :class:`CanonicalForm`.  Coefficients and columns past that
    are zero.
    """

    lambdas: np.ndarray   # (n, K)
    vectors: np.ndarray   # (n, d, 2K)
    n_pairs: np.ndarray   # (n,)

    def form(self, m: int) -> CanonicalForm:
        k = int(self.n_pairs[m])
        return CanonicalForm(self.lambdas[m, :k], self.vectors[m, :, :2 * k])


def canonical_from_lambdas(lambdas, d: int | None = None) -> CanonicalForm:
    """Canonical form aligned with the standard pair layout u_k = e_2k, v_k = e_2k+1."""
    lams = np.asarray(lambdas, dtype=np.float64)
    if d is None:
        d = 2 * len(lams)
    if d < 2 * len(lams):
        raise SectorMismatchError("dimension too small for the coefficient list")
    vecs = np.zeros((d, 2 * len(lams)), dtype=np.complex128)
    for k in range(len(lams)):
        vecs[2 * k, 2 * k] = 1.0
        vecs[2 * k + 1, 2 * k + 1] = 1.0
    return CanonicalForm(lams, vecs)


def check_unit_norms(mats: np.ndarray) -> None:
    """Raise :class:`NotNormalizedError` unless every matrix of the stack
    (n, d, d) has Frobenius norm 1 within ``NORM_TOL``."""
    norms = np.linalg.norm(mats, axis=(1, 2))
    off = np.abs(norms - 1.0)
    if np.any(off > NORM_TOL):
        k = int(np.argmax(off))
        raise NotNormalizedError(
            f"tensor norm {float(norms[k])!r} is not 1 within {NORM_TOL:.1e}")


def canonical_forms(mats) -> CanonicalForms:
    """Canonical pair decompositions of a stack (n, d, d) of unit antisymmetric
    coefficient matrices, from one batched singular value decomposition.

    The singular values of A come in equal pairs lam_k / sqrt(2).  When the
    kept values (above ``LAMBDA_DROP_TOL``) of a matrix form clusters of
    exactly two (relative gap ``CLUSTER_RTOL``), the generic case, its pairs
    are built together with the others': v_k is the conjugated first right
    singular vector of cluster k and u_k the normalized image of conj(v_k)
    under A, orthogonalized against v_k, with lam_k = sqrt(2) ||A conj(v_k)||.
    A matrix with a larger or merged cluster, coefficients out of order or
    a Gram defect above ``ORTHO_TOL`` is decomposed by the cluster loop
    :func:`_decompose_clusters` instead, which gives the same result on the
    generic case.  Vectors with a smaller defect above ``REPAIR_TOL``, as
    singular vectors of near-tied pairs have, are orthonormalized in place.
    Every member is validated as a :class:`CanonicalForm` would be; the
    round trip against :func:`reconstruct` is the correctness arbiter.
    """
    a = np.asarray(mats, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise SectorMismatchError("need a stack of square matrices")
    n, d = a.shape[0], a.shape[1]
    check_unit_norms(a)
    try:
        _, sigmas, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("singular value decomposition did not converge") from exc
    sigma_floor = LAMBDA_DROP_TOL / np.sqrt(2.0)
    kept = np.sum(sigmas > sigma_floor, axis=1)
    if np.any(kept < 2):
        raise DecompositionError("no singular pair above the truncation floor")
    # cluster boundaries fall exactly between pairs, and nowhere inside one
    boundary = sigmas[:, :-1] - sigmas[:, 1:] > CLUSTER_RTOL * sigmas[:, :1]
    inside = np.arange(d - 1) < kept[:, None] - 1
    paired = (kept % 2 == 0) & np.all(
        ~inside | (boundary == (np.arange(d - 1) % 2 == 1)), axis=1)

    parts = []   # (members, lambdas, vectors), one per pair count
    for k in np.unique(kept[paired]) // 2:
        idx = np.flatnonzero(paired & (kept == 2 * k))
        v = vh[idx, :2 * k:2, :].transpose(0, 2, 1)      # columns v_j
        image = np.matmul(a[idx], v.conj())               # A conj(v_j)
        s = np.linalg.norm(image, axis=1)
        u = image / s[:, None, :]
        u = u - v * np.sum(v.conj() * u, axis=1, keepdims=True)
        u = u / np.linalg.norm(u, axis=1, keepdims=True)
        vecs = np.empty((len(idx), d, 2 * k), dtype=np.complex128)
        vecs[:, :, 0::2], vecs[:, :, 1::2] = u, v
        lams = np.sqrt(2.0) * s
        gram = np.matmul(vecs.conj().transpose(0, 2, 1), vecs)
        defect = np.max(np.abs(gram - np.eye(2 * k)), axis=(1, 2))
        ok = (np.all(s > sigma_floor, axis=1)
              & np.all(np.diff(lams, axis=1) <= 0, axis=1)
              & (defect <= ORTHO_TOL))
        repair = ok & (defect > REPAIR_TOL)
        if np.any(repair):
            vecs[repair] = _orthonormalize(vecs[repair])
        paired[idx[~ok]] = False
        parts.append((idx[ok], lams[ok], vecs[ok]))
    for m in np.flatnonzero(~paired):
        lams, vecs = _decompose_clusters(a[m])
        parts.append(([m], lams[None], vecs[None]))

    width = max((lams.shape[1] for _, lams, _ in parts), default=0)
    lambdas = np.zeros((n, width))
    vectors = np.zeros((n, d, 2 * width), dtype=np.complex128)
    n_pairs = np.zeros(n, dtype=np.intp)
    for members, lams, vecs in parts:
        k = lams.shape[1]
        lambdas[members, :k] = lams
        vectors[members, :, :2 * k] = vecs
        n_pairs[members] = k
    _check_forms(lambdas, vectors, n_pairs)
    return CanonicalForms(lambdas, vectors, n_pairs)


def youla_decompose(tensor: AntisymmetricTensor) -> CanonicalForm:
    """Canonical pair decomposition of a normalized antisymmetric tensor:
    :func:`canonical_forms` of a stack of one."""
    return canonical_forms(tensor.mat[None]).form(0)


def _decompose_clusters(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical coefficients and vectors of one unit matrix, cluster by cluster.

    Within each cluster of equal singular values (relative gap
    ``CLUSTER_RTOL``), a right-singular vector v picks its partner as the
    normalized image of conj(v) under A; both directions are then deflated
    from the cluster.  Coefficients below ``LAMBDA_DROP_TOL`` are discarded.
    This handles every case :func:`canonical_forms` does not build in bulk,
    and serves the tests as its oracle.
    """
    try:
        _, sigmas, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("singular value decomposition did not converge") from exc
    right = vh.conj().T
    sigma_floor = LAMBDA_DROP_TOL / np.sqrt(2.0)
    kept = int(np.sum(sigmas > sigma_floor))
    if kept < 2:
        raise DecompositionError("no singular pair above the truncation floor")

    # Group nearly equal singular values; pairs must never straddle a cluster
    # boundary, so odd-sized clusters are merged forward.
    gap = CLUSTER_RTOL * float(sigmas[0])
    clusters: list[tuple[int, int]] = []
    start = 0
    for i in range(1, kept):
        if sigmas[i - 1] - sigmas[i] > gap:
            clusters.append((start, i))
            start = i
    clusters.append((start, kept))
    merged: list[tuple[int, int]] = []
    for lo, hi in clusters:
        if merged and (merged[-1][1] - merged[-1][0]) % 2:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    if (merged[-1][1] - merged[-1][0]) % 2:
        raise DecompositionError(
            "singular values do not pair up; input is not antisymmetric enough")

    lams: list[float] = []
    cols: list[np.ndarray] = []
    for lo, hi in merged:
        block = np.conj(right[:, lo:hi])
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
    """Gram-Schmidt of the columns in their order, of one matrix or a stack:
    QR with the phases of diag(R) put back, so order and phases are kept."""
    q, r = np.linalg.qr(vectors)
    return q * np.exp(1j * np.angle(np.diagonal(r, axis1=-2, axis2=-1)))[..., None, :]


def reconstruct(form: CanonicalForm, d: int | None = None) -> AntisymmetricTensor:
    """Materialize sum_k lam_k u_k ^ v_k as an antisymmetric matrix."""
    if d is None:
        d = form.d
    if d != form.d:
        raise SectorMismatchError("dimension does not match the canonical vectors")
    a = np.zeros((d, d), dtype=np.complex128)
    for k in range(form.n_pairs):
        s = form.lambdas[k] / np.sqrt(2.0)
        u, v = form.u(k), form.v(k)
        a += s * (np.outer(u, v) - np.outer(v, u))
    a = 0.5 * (a - a.T)
    return AntisymmetricTensor(d, a)


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


def embed_as_sector_vector(obj, d: int | None = None) -> SectorVector:
    """Express a two-particle tensor in the (d, 2) occupation sector.

    The amplitude on the mask occupying orbitals i < j is sqrt(2) A[i, j],
    matching the convention e_i ^ e_j = c*_i c*_j |vacuum>.
    """
    tensor = reconstruct(obj) if isinstance(obj, CanonicalForm) else obj
    if d is None:
        d = tensor.d
    if d != tensor.d:
        raise SectorMismatchError("dimension does not match the tensor")
    sec = enumerate_sector(d, 2)
    iu, ju = np.triu_indices(d, 1)
    masks = (1 << iu.astype(np.int64)) | (1 << ju.astype(np.int64))
    amps = np.zeros(sec.dim, dtype=np.complex128)
    amps[sec.index_of(masks)] = np.sqrt(2.0) * tensor.mat[iu, ju]
    return SectorVector(sec, amps)


def write_tensor_text(path, tensor: AntisymmetricTensor) -> None:
    """Text form: header line ``d``, then ``i j re im`` per strictly-upper entry."""
    lines = [str(tensor.d)]
    for i, j in wedge_pairs(tensor.d):
        val = tensor.mat[i, j]
        if val != 0:
            lines.append(f"{i} {j} {float(val.real)!r} {float(val.imag)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_tensor_text(path) -> AntisymmetricTensor:
    """Parse the text form written by :func:`write_tensor_text`."""
    raw = [ln.strip() for ln in Path(path).read_text(encoding="utf-8").splitlines()]
    rows = [ln for ln in raw if ln and not ln.startswith("#")]
    if not rows:
        raise ValueError("empty tensor file")
    d = int(rows[0])
    upper = np.zeros((d, d), dtype=np.complex128)
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ValueError(f"malformed tensor line: {ln!r}")
        i, j = int(parts[0]), int(parts[1])
        if not 0 <= i < j < d:
            raise ValueError(f"entry ({i}, {j}) is not strictly upper for d={d}")
        upper[i, j] = float(parts[2]) + 1j * float(parts[3])
    return AntisymmetricTensor(d, upper - upper.T)
