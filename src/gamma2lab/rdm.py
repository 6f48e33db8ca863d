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
c_j c_i psi are read straight from psi just before its product is added:
psi's masks with one top occupation form a run ordered as the masks of the
low orbitals, so a block needs only a few runs of psi and small annihilation
tables on the low orbitals, cached per low sector.  A block keeps only the
pairs outside its occupied top orbitals, the others being zero on it, and
its Hermitian product is summed in real arithmetic, one symmetric and one
cross product, so the sum is Hermitian by construction; its trace is
checked against N(N-1).  Nothing of the size of c_i psi is built, so
within the sector caps the assembly holds little beyond psi itself.

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
from .fock import (SectorMismatchError, SectorVector, _hops, admit_sector,
                   apply_annihilate, apply_annihilate_vector, enumerate_sector,
                   occupation_masks)

STATE_NORM_TOL = 1e-10
TRACE_TOL = 1e-10
GRAM_CHUNK = 1024   # most (N-2)-particle states in one block of the Gram sum
LOW_CACHE = 64      # low annihilation tables kept, one per (L, n, k)


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


def admit_gamma2(d: int, N: int) -> None:
    """Refuse the reduced operator of a (d, N) state by arithmetic alone.

    Checks, in this order, the sector caps of :func:`fock.admit_sector` and
    the two-particle minimum (:class:`SectorMismatchError`), so a caller can
    refuse a request before it draws any state.  Within the caps the
    assembly needs no budget of its own: besides psi (at most 48 MB) it
    holds two block buffers of at most ``GRAM_CHUNK`` columns, the P x P sums
    and low tables of a few MB.
    """
    admit_sector(d, N)
    if N < 2:
        raise SectorMismatchError("two-body reduction needs at least two particles")


@lru_cache(maxsize=LOW_CACHE)
def _low_hops(L: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every product of ``k`` (1 or 2) annihilators on the L-orbital masks of
    popcount ``n``, as one scatter into a block of C(L, n-k) columns.

    Row r is the r-th mask of ``occupation_masks(L, k)``: orbital i for
    k = 1, and pair (i, j), i < j, at its colex row j(j-1)/2 + i for k = 2,
    applied as c_j c_i.  For every mask s holding the row's orbitals,
    ``src`` is the position of s in ``occupation_masks(L, n)``, ``dst`` is
    r * C(L, n-k) plus the position of s with those orbitals cleared in
    ``occupation_masks(L, n-k)``, and ``signs`` the Jordan-Wigner sign:
    (-1)**pop(s below i) for k = 1, (-1)**(pop(s below i) + pop(s below j) - 1)
    for k = 2.  All three are read-only.
    """
    empty = np.zeros(0, dtype=np.intp)
    dst, src, parity = [empty], [empty], [empty]
    if n >= k:
        masks, width = occupation_masks(L, n), comb(L, n - k)
        for r, bits in enumerate(occupation_masks(L, k).tolist()):
            rows, cols = _hops(L, n, bits)
            below = [np.bitwise_count(masks[cols] & ((1 << o) - 1))
                     for o in range(L) if bits >> o & 1]
            dst.append(r * width + rows)
            src.append(cols)
            parity.append(sum(below, k * (k - 1) // 2))
    table = (np.concatenate(dst), np.concatenate(src),
             1.0 - 2.0 * (np.concatenate(parity) & 1))
    for part in table:
        part.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def _gram_blocks(d: int, N: int, cap: int) -> tuple:
    """Blocks of the Gram sum of a (d, N) state, at most ``cap`` columns each.

    The sum runs in colex pair order, pair (i, j), i < j, at row
    j(j-1)/2 + i, so the pairs of one j are contiguous.  The (N-2)-particle
    masks ascend, so those sharing the occupation T of the top m orbitals
    form one run, ordered as ``occupation_masks(L, N-2-|T|)`` of their
    L = d - m low orbitals; m is the fewest for which every run, C(L, N-2-t)
    masks with t top orbitals occupied, fits in ``cap``.  Returns L; per
    block, T ascending (the order of the runs), the mask T and the low
    popcount N-2-|T| of its columns; the widest block; the colex pairs
    ``(hi, lo)`` of ``np.tril_indices(d, -1)``, whose first C(f, 2) entries
    are the colex pairs of any f orbitals; and the ``np.ix_`` of the colex
    row of each wedge pair, which reorders the sum to the wedge basis.
    """
    n = N - 2
    m = next(k for k in range(d + 1)
             if max(comb(d - k, n - t) for t in range(min(k, n) + 1)) <= cap)
    L = d - m
    blocks = [(t << L, n - t.bit_count()) for t in range(1 << m)
              if 0 <= n - t.bit_count() <= L]
    widest = max(comb(L, n_low) for _, n_low in blocks)
    i, j = np.triu_indices(d, 1)
    wedge = j * (j - 1) // 2 + i
    return L, blocks, widest, np.tril_indices(d, -1), np.ix_(wedge, wedge)


def compute_gamma2(psi: SectorVector) -> TwoBodyOperator:
    """Assemble the two-body reduced operator of a normalized state.

    Returns twice the transposed Gram matrix of the pair-annihilated vectors
    y_ij = c_j c_i psi, summed over the blocks of :func:`_gram_blocks`, runs
    of at most ``GRAM_CHUNK`` (N-2)-particle columns that share the
    occupation T of the top orbitals (one block for small sectors).  y_ij
    vanishes on a column holding i or j, so a block has rows only for the
    C(d-|T|, 2) pairs outside T, and its product lands on those rows and
    columns of the sum.  Each block is read straight from psi: psi's masks
    with top occupation U form one run, ordered as the low masks.  Low pairs
    i < j come from the run of T along the pair table of :func:`_low_hops`,
    low i with top j from the run of T + j along its single table, and top
    pairs i < j are the run of T + i + j itself; the Jordan-Wigner sign of
    the top orbitals is one constant per run.  Only nonzero entries are
    written, and nothing of the size of c_i psi is built.  With a block
    B = X + iY held as [X | Y], conj(B) B^T = (X X^T + Y Y^T) + i (X Y^T - Y X^T):
    one symmetric real product and one real cross product, so the sum is
    Hermitian by construction; it runs in colex pair order and is reordered
    to the wedge basis once at the end.  A (d, N) refused by
    :func:`admit_gamma2` raises before anything is allocated.  The trace is
    checked against N(N-1) ||psi||^2; a residual above ``TRACE_TOL`` aborts,
    since at these sizes it signals an implementation bug, not roundoff.
    """
    basis = psi.basis
    d, N = basis.d, basis.N
    admit_gamma2(d, N)
    if abs(psi.norm() - 1.0) > STATE_NORM_TOL:
        raise ValueError("state must be normalized")
    amps = psi.amplitudes
    L, blocks, widest, (hi, lo), wedge = _gram_blocks(d, N, GRAM_CHUNK)
    n_pairs = d * (d - 1) // 2
    size = n_pairs * widest  # the largest block; every block reuses the buffers
    complex_buf, real_buf = np.empty(size, dtype=np.complex128), np.empty(2 * size)
    sym = np.zeros((n_pairs, n_pairs))
    cross = np.zeros((n_pairs, n_pairs))
    for T, n_low in blocks:
        top = [j for j in range(L, d) if not T >> j & 1]  # free orbital L + q is top[q]
        below = [(T & ((1 << j) - 1)).bit_count() for j in top]
        n_doubles = len(top) * (len(top) - 1) // 2
        doubles = list(zip(hi[:n_doubles].tolist(), lo[:n_doubles].tolist()))
        keys = ([T] + [T | 1 << j for j in top]
                + [T | 1 << top[q] | 1 << top[p] for q, p in doubles])
        starts = np.searchsorted(basis.states, keys).tolist()
        n_free = L + len(top)
        n_rows, width = n_free * (n_free - 1) // 2, comb(L, n_low)
        flat = complex_buf[:n_rows * width]
        flat.fill(0)
        dst, src, signs = _low_hops(L, n_low + 2, 2)  # low i < j: the run of T
        flat[dst] = amps[starts[0]:][src] * signs
        dst, src, signs = _low_hops(L, n_low + 1, 1)  # low i, top j: the run of T + j
        for q, start in enumerate(starts[1:1 + len(top)]):
            # past c_i, c_j crosses the other n_low low orbitals and T below j
            sign = (-1) ** (n_low + below[q])
            row = (L + q) * (L + q - 1) // 2  # pair (0, top[q])
            flat[row * width + dst] = amps[start:][src] * (sign * signs)
        for (q, p), start in zip(doubles, starts[1 + len(top):]):  # top i < j: T + i + j
            offset = ((L + q) * (L + q - 1) // 2 + L + p) * width
            np.multiply(amps[start:start + width], (-1) ** (below[p] + below[q]),
                        out=flat[offset:offset + width])
        blk = flat.reshape(n_rows, width)
        xy = real_buf[:2 * n_rows * width].reshape(n_rows, 2 * width)
        xy[:, :width], xy[:, width:] = blk.real, blk.imag  # [X | Y]
        xx, yx = xy @ xy.T, xy[:, width:] @ xy[:, :width].T
        if T == 0:
            sym += xx
            cross += yx
        else:
            free = np.array([*range(L), *top])
            i, j = free[lo[:n_rows]], free[hi[:n_rows]]
            rows = j * (j - 1) // 2 + i  # the colex rows of the block's pairs
            sym[rows[:, None], rows] += xx
            cross[rows[:, None], rows] += yx
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
