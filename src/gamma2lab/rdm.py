"""Two-body reduced operators of N-fermion states.

The reduced operator of a normalized sector vector is represented on the
antisymmetric two-particle subspace, i.e. on the wedge basis e_i ^ e_j with
i < j, which has dimension P = d(d-1)/2.  Its matrix element between
e_i ^ e_j and e_k ^ e_l equals 2 <psi, c*_k c*_l c_j c_i psi>, so the whole
operator is assembled from the Gram matrix of the pair-annihilated vectors
c_j c_i psi.  This makes positivity and the trace value N(N-1) structural
rather than accidental.  The vectors are never held whole: the Gram matrix
is summed over blocks of the (N-2)-particle sector, runs of masks that share
the occupation of the top orbitals, and each block's columns of every
c_j c_i psi are gathered pair-major from the partial vectors c_i psi, along
the cached hop tables, just before its product is added.  A block keeps only
the pairs outside its occupied top orbitals, the others being zero on it,
and its Hermitian product is summed in real arithmetic, one symmetric and
one cross product, so the sum is Hermitian by construction; its trace is
checked against N(N-1).  The total size of the vectors is still admitted by
arithmetic before anything is allocated.

Two more quantities come from identities instead of per-vector work:

* the one-body matrix gamma1[i, k] = <c_i psi, c_k psi> is a partial trace,
  sum_j G[i, j, k, j] = 2 (N-1) <c_k psi, c_i psi> with G the antisymmetric
  extension of the operator, so it costs O(P d) once the operator exists,
  and :class:`SpectralData` takes it once for every check of one state;
* sum lam**4 and lam_max of an eigenvector's canonical form are unitary
  invariants of its coefficient matrix A: sum lam**4 = 2 ||A^H A||_F**2 and
  lam_max = sqrt(2) ||A||_2, batched over all eigenvectors at once.

Quadratic forms <phi, G phi> can also be evaluated without assembling G:
with phi in canonical form, the pair annihilator
B = sum_k lam_k c(v_k) c(u_k) satisfies <phi, G phi> = 2 ||B psi||^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .canonical import (AntisymmetricTensor, CanonicalForm, check_unit_norms,
                        reconstruct, wedge_matrices)
from .fock import (SectorMismatchError, SectorSizeError, SectorVector,
                   _fermion_hops, admit_sector, apply_annihilate,
                   apply_annihilate_vector, enumerate_sector, occupation_masks)

STATE_NORM_TOL = 1e-10
TRACE_TOL = 1e-10
GRAM_CHUNK = 1024   # most (N-2)-particle states in one block of the Gram sum
COMPLEX_BYTES = 16
# Bytes of c_j c_i psi computed by one Gamma2 assembly.  They are summed one
# block of columns at a time and never held whole; the resident set is the
# hop tables, the d-1 partial vectors c_i psi and one block of at most
# GRAM_CHUNK columns.
DEFAULT_MAX_GAMMA2_BYTES = 2 * 2 ** 30


@dataclass
class TwoBodyOperator:
    """Hermitian matrix on the wedge basis of ordered pairs (i, j), i < j."""

    d: int
    n_particles: int
    mat: np.ndarray
    trace_residual: float = 0.0


@dataclass
class SpectralData:
    """Full eigensystem of a reduced operator, eigenvalues descending.

    Column k of ``wedge_vectors`` is the k-th eigenvector on the wedge basis.
    ``matrices`` holds the coefficient matrices of all of them, shape
    (P, d, d), scattered in one call on first access; the eigenpair checks
    read that stack.  ``one_body`` is the one-body matrix of the operator,
    taken once on first access.
    """

    eigenvalues: np.ndarray
    wedge_vectors: np.ndarray
    operator: TwoBodyOperator

    @cached_property
    def matrices(self) -> np.ndarray:
        return wedge_matrices(self.operator.d, self.wedge_vectors)

    @cached_property
    def one_body(self) -> np.ndarray:
        return one_body_matrix(self.operator)


def gamma2_bytes(d: int, N: int) -> int:
    """Bytes of all pair-annihilated vectors c_j c_i psi of a (d, N) state.

    :func:`compute_gamma2` computes that many bytes block by block but never
    holds them at once; the budget bounds the work of one assembly.
    """
    return comb(d, N - 2) * (d * (d - 1) // 2) * COMPLEX_BYTES


def admit_gamma2(d: int, N: int) -> None:
    """Refuse the reduced operator of a (d, N) state by arithmetic alone.

    Checks, in this order, the sector caps of :func:`fock.admit_sector`, the
    two-particle minimum (:class:`SectorMismatchError`) and
    :func:`gamma2_bytes` against ``DEFAULT_MAX_GAMMA2_BYTES``
    (:class:`SectorSizeError`), so a caller can refuse a request before it
    draws any state.
    """
    admit_sector(d, N)
    if N < 2:
        raise SectorMismatchError("two-body reduction needs at least two particles")
    need = gamma2_bytes(d, N)
    if need > DEFAULT_MAX_GAMMA2_BYTES:
        raise SectorSizeError(
            f"reduced operator of (d={d}, N={N}) needs {need} bytes of "
            f"pair-annihilated vectors, budget is {DEFAULT_MAX_GAMMA2_BYTES}")


@lru_cache(maxsize=16)
def _gram_blocks(d: int, N: int, cap: int) -> tuple:
    """Blocks of the Gram sum of a (d, N) state, at most ``cap`` columns each.

    The sum runs in colex pair order, pair (i, j), i < j, at row
    j(j-1)/2 + i, so the pairs of one j are contiguous.  The (N-2)-particle
    masks ascend, so those sharing the occupation T of the top m orbitals
    form one run; m is the fewest for which every run, C(d-m, N-2-t) masks
    with t of them occupied, fits in ``cap``.  Returns the run bounds;
    ``edges[j, c]``, the position of bound c in the rows of c_j's hop table
    (they ascend, so a block is one slice of each table); per block the
    orbitals outside T, ascending, and the ``np.ix_`` of the colex rows of
    their pairs (``None`` when T is empty); the widest run; and the
    ``np.ix_`` of the colex row of each wedge pair, which reorders the sum
    to the wedge basis.
    """
    n = N - 2
    lower = occupation_masks(d, n)
    m = next(k for k in range(d + 1)
             if max(comb(d - k, n - t) for t in range(min(k, n) + 1)) <= cap)
    top = lower >> (d - m)
    bounds = [0, *(np.flatnonzero(top[1:] != top[:-1]) + 1).tolist(), len(lower)]
    edges = np.zeros((d, len(bounds)), dtype=np.intp)
    for j in range(1, d):
        edges[j] = np.searchsorted(_fermion_hops(d, N - 1, j)[0], bounds)
    every = np.arange(d)
    blocks = []
    for t in top[bounds[:-1]].tolist():
        free = every[(t << (d - m) >> every & 1) == 0]
        hi, lo = np.tril_indices(len(free), -1)  # colex order of their pairs
        keep = free[hi] * (free[hi] - 1) // 2 + free[lo]
        blocks.append((free, None if len(free) == d else np.ix_(keep, keep)))
    i, j = np.triu_indices(d, 1)
    wedge = j * (j - 1) // 2 + i
    return bounds, edges, blocks, int(np.diff(bounds).max()), np.ix_(wedge, wedge)


def compute_gamma2(psi: SectorVector) -> TwoBodyOperator:
    """Assemble the two-body reduced operator of a normalized state.

    Returns twice the transposed Gram matrix of the pair-annihilated vectors
    y_ij = c_j c_i psi, summed over the blocks of :func:`_gram_blocks`, runs
    of at most ``GRAM_CHUNK`` (N-2)-particle columns that share the
    occupation T of the top orbitals (one block for small sectors).  y_ij
    vanishes on a column holding i or j, so a block has rows only for the
    C(d-|T|, 2) pairs outside T, and its product lands on those rows and
    columns of the sum.  The d-1 partial vectors c_i psi are built once;
    each block of every y_ij is gathered pair-major from them, along one
    slice of the cached hop table of each c_j, just before its product is
    added, so the y_ij are never held whole.  With a block B = X + iY held
    as [X | Y], conj(B) B^T = (X X^T + Y Y^T) + i (X Y^T - Y X^T): one
    symmetric real product and one real cross product, so the sum is
    Hermitian by construction; it runs in colex pair order and is reordered
    to the wedge basis once at the end.  A (d, N) refused by :func:`admit_gamma2`
    raises before anything is allocated.  The trace is checked against
    N(N-1) ||psi||^2; a residual above ``TRACE_TOL`` aborts, since at these
    sizes it signals an implementation bug, not roundoff.
    """
    basis = psi.basis
    d, N = basis.d, basis.N
    admit_gamma2(d, N)
    if abs(psi.norm() - 1.0) > STATE_NORM_TOL:
        raise ValueError("state must be normalized")
    partial = np.zeros((d - 1, comb(d, N - 1)), dtype=np.complex128)
    for i in range(d - 1):  # the last orbital is never the first of a pair
        rows, cols, signs = _fermion_hops(d, N, i)
        partial[i, rows] = signs * psi.amplitudes[cols]
    tables = {j: _fermion_hops(d, N - 1, j) for j in range(1, d)}
    bounds, edges, blocks, widest, wedge = _gram_blocks(d, N, GRAM_CHUNK)
    n_pairs = d * (d - 1) // 2
    size = n_pairs * widest  # the largest block; every block reuses the buffers
    complex_buf, real_buf = np.empty(size, dtype=np.complex128), np.empty(2 * size)
    sym = np.zeros((n_pairs, n_pairs))
    cross = np.zeros((n_pairs, n_pairs))
    for c, (free, keep) in enumerate(blocks):
        start, width = bounds[c], bounds[c + 1] - bounds[c]
        lo, hi = edges[:, c].tolist(), edges[:, c + 1].tolist()
        n_rows = len(free) * (len(free) - 1) // 2
        blk = complex_buf[:n_rows * width].reshape(n_rows, width)
        blk.fill(0)
        free_list = free.tolist()
        for b in range(1, len(free_list)):  # y_ij for every free i below j at once
            j = free_list[b]
            rows, cols, signs = tables[j]
            s = slice(lo[j], hi[j])
            # the low orbitals are never in T, so i often runs over 0..b-1
            i = slice(0, b) if free_list[b - 1] == b - 1 else free[:b, None]
            y = partial[i, cols[s]]
            y *= signs[s]
            blk[b * (b - 1) // 2:b * (b + 1) // 2, rows[s] - start] = y
        xy = real_buf[:2 * n_rows * width].reshape(n_rows, 2 * width)
        xy[:, :width], xy[:, width:] = blk.real, blk.imag  # [X | Y]
        xx, yx = xy @ xy.T, xy[:, width:] @ xy[:, :width].T
        if keep is None:
            sym += xx
            cross += yx
        else:
            sym[keep] += xx
            cross[keep] += yx
    g = np.empty((n_pairs, n_pairs), dtype=np.complex128)
    g.real, g.imag = sym, cross - cross.T  # the transpose of the sum
    g = 2.0 * g[wedge]
    residual = abs(2.0 * float(np.trace(sym))
                   - N * (N - 1) * float(np.vdot(psi.amplitudes, psi.amplitudes).real))
    if residual > TRACE_TOL:
        raise ArithmeticError(f"trace residual {residual:.3e} exceeds {TRACE_TOL:.1e}")
    return TwoBodyOperator(d=d, n_particles=N, mat=g, trace_residual=residual)


def spectral_decompose(g: TwoBodyOperator) -> SpectralData:
    """Full eigensystem of the reduced operator, eigenvalues descending."""
    try:
        evals, evecs = np.linalg.eigh(g.mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("eigensolver did not converge") from exc
    order = np.argsort(-evals, kind="stable")
    return SpectralData(eigenvalues=evals[order], wedge_vectors=evecs[:, order],
                        operator=g)


def correlation_invariants(mats) -> tuple[np.ndarray, np.ndarray]:
    """sum lam**4 and lam_max of the canonical form of each matrix, no decomposition.

    ``mats`` is a stack (n, d, d) of coefficient matrices A_k of unit
    tensors; then sum lam**4 = 2 ||A_k^H A_k||_F**2 and
    lam_max = sqrt(2 * largest eigenvalue of A_k^H A_k), evaluated for the
    whole stack with one batched product.  A matrix whose norm is off 1 by
    more than ``canonical.NORM_TOL`` raises :class:`NotNormalizedError`, as
    :func:`canonical.plane_minima` does.
    """
    a = np.asarray(mats, dtype=np.complex128)
    check_unit_norms(a)
    gram = np.matmul(a.conj().transpose(0, 2, 1), a)
    sum_lambda4 = 2.0 * np.sum(np.abs(gram) ** 2, axis=(1, 2))
    lambda_max = np.sqrt(2.0 * np.linalg.eigvalsh(gram)[:, -1])
    return sum_lambda4, lambda_max


def one_body_matrix(g: TwoBodyOperator) -> np.ndarray:
    """gamma1[i, k] = <c_i psi, c_k psi> by partial trace of the reduced operator.

    With G[i, j, k, l] the antisymmetric extension of the wedge matrix,
    sum_j G[i, j, k, j] = 2 (N-1) <c_k psi, c_i psi>; one gather of d**3
    entries evaluates all of it.  Then ||c(u) psi||**2 = u^T gamma1 conj(u).
    """
    d = g.d
    iu, ju = np.triu_indices(d, 1)
    index = np.zeros((d, d), dtype=np.intp)
    sign = np.zeros((d, d))
    index[iu, ju] = index[ju, iu] = np.arange(len(iu))
    sign[iu, ju], sign[ju, iu] = 1.0, -1.0
    # G[i, j, k, j] = sign[j, i] * sign[j, k] * blocks[j, i, k], where
    # blocks[j, i, k] is the wedge entry of pairs {j, i} and {j, k}; the sign
    # is 0 when j equals i or k
    blocks = g.mat[index[:, :, None], index[:, None, :]]
    trace2 = np.einsum("jik,ji,jk->ik", blocks, sign, sign)
    return trace2.T / (2.0 * (g.n_particles - 1))


def partial_trace_residual(gamma1: np.ndarray, psi: SectorVector) -> float:
    """max_i |gamma1[i, i] - <n_i>|: the partial trace, the one-body matrix of
    psi's reduced operator (:func:`one_body_matrix`), against direct occupations.

    <n_i> is the weight |psi|**2 on the masks with bit i set over ||psi||**2,
    summed as :func:`fock.occupation` sums it, with the norm taken once.
    """
    diag = np.diagonal(gamma1).real
    weight = np.abs(psi.amplitudes) ** 2
    nsq = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    if nsq == 0.0:
        raise ValueError("zero vector has no occupation expectation")
    states = psi.basis.states
    return max(abs(float(diag[i]) - float(np.sum(weight[(states & (1 << i)) != 0]) / nsq))
               for i in range(len(diag)))


def expectation(phi: AntisymmetricTensor, g: TwoBodyOperator) -> float:
    """Quadratic form <phi, G phi> through the assembled matrix."""
    if phi.d != g.d:
        raise SectorMismatchError("tensor dimension does not match the operator")
    x = phi.wedge_amplitudes()
    val = complex(np.vdot(x, g.mat @ x))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)


def apply_pair_annihilator(phi, psi: SectorVector) -> SectorVector:
    """Apply B = sum_{i<j} conj(sqrt(2) A[i, j]) c_j c_i built from phi,
    (d, N) -> (d, N-2).

    Accepts a raw antisymmetric tensor with coefficient matrix A, or a
    canonical form (vectors in psi's orbital basis), which is reconstructed
    first; then B = sum_k lam_k c(v_k) c(u_k).  Since A is antisymmetric,
    B = (1/sqrt 2) sum_i c(A[i]) c_i with c(u) the annihilator of
    sum_j u_j e_j: d steps, one per orbital.
    """
    basis = psi.basis
    if basis.N < 2:
        raise SectorMismatchError("pair annihilation needs at least two particles")
    if isinstance(phi, CanonicalForm):
        if phi.d != basis.d:
            raise SectorMismatchError("canonical vectors live in a different basis")
        phi = reconstruct(phi)
    elif not isinstance(phi, AntisymmetricTensor):
        raise TypeError("phi must be a CanonicalForm or AntisymmetricTensor")
    if phi.d != basis.d:
        raise SectorMismatchError("tensor dimension does not match the state")
    target = enumerate_sector(basis.d, basis.N - 2)
    out = np.zeros(target.dim, dtype=np.complex128)
    for i, row in enumerate(phi.mat):
        out += apply_annihilate_vector(row, apply_annihilate(i, psi)).amplitudes
    return SectorVector(target, out / np.sqrt(2.0))


def expectation_fast(phi, psi: SectorVector) -> float:
    """Quadratic form <phi, G_psi phi> = 2 ||B psi||^2, no operator assembly."""
    return 2.0 * apply_pair_annihilator(phi, psi).norm() ** 2
