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
low orbitals, so a block needs only a few runs of psi and the hop tables of
:func:`fock._hops` for every single and every pair of the low orbitals,
laid out in blocks and cached per low sector.  A block keeps only the
pairs outside its occupied top orbitals, the others being zero on it.  Its
real and imaginary parts are gathered as two stacked real planes
Z = [X; Y], and one symmetric real product Z Z^T holds all of its
Hermitian product: X X^T + Y Y^T on the diagonal quadrants, Y X^T below,
so the sum is Hermitian by construction; its trace is checked against
N(N-1).  Blocks with the same number of occupied top orbitals share a
layout and are taken together, so their planes are zeroed once, and every
block, the T = 0 one included, adds its product to the rows of its pairs
in the sum.  Nothing of the size of c_i psi is built, so within the sector
caps the assembly holds little beyond psi itself.  A stack of states, as a
seeded sweep draws a batch, is assembled one state at a time: each block's
indices are built once and read by every state in turn, through the
planes and product of one state, so a state gets the same bits as alone
and only the P x P sums grow with the stack; the eigensolve, the one-body
partial trace and the occupations then run over the stack.

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
B = sum_k lam_k c(v_k) c(u_k) satisfies <phi, G phi> = 2 ||B psi||^2.  B is
one term list of the applier :func:`fock._scatter`, one pair row
``(1 << i) | (1 << j)`` per entry of phi's coefficient matrix above the
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from math import comb

import numpy as np

from .canonical import (AntisymmetricTensor, CanonicalForm, check_unit_norms,
                        reconstruct, wedge_index, wedge_matrices)
from .fock import (SectorMismatchError, SectorVector, _hops, _scatter, admit_sector,
                   occupation_masks, occupations)

STATE_NORM_TOL = 1e-10
TRACE_TOL = 1e-10
GRAM_CHUNK = 1024   # most (N-2)-particle states in one block of the Gram sum
LOW_CACHE = 64      # low annihilation tables kept, one per (L, n, k)


@dataclass
class TwoBodyOperator:
    """Hermitian matrix on the wedge basis of ordered pairs (i, j), i < j,
    or a stack (B, P, P) of them with B trace residuals."""

    d: int
    n_particles: int
    mat: np.ndarray
    trace_residual: float | np.ndarray = 0.0


@dataclass
class SpectralData:
    """Full eigensystem of a reduced operator, eigenvalues descending, or of
    each operator of a stack, with every array led by the stack axis.

    Column k of ``wedge_vectors`` is the k-th eigenvector on the wedge basis.
    ``matrices`` holds the coefficient matrices of all of them, shape
    (P, d, d) (or (B, P, d, d)), scattered in one call on first access; the
    eigenpair checks read that stack.  ``one_body`` is the one-body matrix
    of the operator and ``eigen_residual`` max_k ||G v_k - Lambda_k v_k||,
    numpy's ``eigh`` reporting no convergence of its own; each is taken
    once, for the whole stack, on first access.
    """

    eigenvalues: np.ndarray
    wedge_vectors: np.ndarray
    operator: TwoBodyOperator

    @cached_property
    def matrices(self) -> np.ndarray:
        v, d = self.wedge_vectors, self.operator.d
        columns = np.moveaxis(v, -2, 0).reshape(v.shape[-2], -1)  # (P, B * P)
        return wedge_matrices(d, columns).reshape(v.shape[:-2] + (v.shape[-1], d, d))

    @cached_property
    def one_body(self) -> np.ndarray:
        return one_body_matrix(self.operator)

    @cached_property
    def eigen_residual(self) -> float | np.ndarray:
        v = self.wedge_vectors
        res = np.linalg.norm(self.operator.mat @ v - v * self.eigenvalues[..., None, :],
                             axis=-2).max(axis=-1)
        return res if res.ndim else float(res)


def admit_gamma2(d: int, N: int) -> None:
    """Refuse the reduced operator of a (d, N) state by arithmetic alone.

    Checks, in this order, the sector caps of :func:`fock.admit_sector` and
    the two-particle minimum (:class:`SectorMismatchError`), so a caller can
    refuse a request before it draws any state.  Within the caps the
    assembly needs no budget of its own: besides psi (at most 43 MB) it
    holds the two real planes of one block of at most ``GRAM_CHUNK``
    columns, that block's product and the low tables, a few MB, whatever
    the stack, and one P x P sum per state.
    """
    admit_sector(d, N)
    if N < 2:
        raise SectorMismatchError("two-body reduction needs at least two particles")


@lru_cache(maxsize=LOW_CACHE)
def _low_hops(L: int, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every product of ``k`` (1 or 2) annihilators on the L-orbital masks of
    popcount ``n``, as one scatter into a block of C(L, n-k) columns: the
    table of :func:`fock._hops` for the rows ``occupation_masks(L, k)``
    (orbital i for k = 1; pair (i, j), i < j, at its colex row
    j(j-1)/2 + i for k = 2, applied as c_j c_i) as ``(dst, src, signs)``,
    with dst = row * C(L, n-k) + cleared.  All three are read-only.
    """
    row, cleared, src, signs = _hops(L, n, occupation_masks(L, k))
    table = (row * comb(L, max(n - k, 0)) + cleared, src, signs)  # n < k: no entries
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
    masks with t top orbitals occupied, fits in ``cap``.  Blocks with the
    same |T| have the same layout, so they come in groups, |T| ascending.
    Returns L; per group, the low popcount N-2-|T| of its columns, its
    masks T ascending and, per block, its free top orbitals ascending; the
    number of floats in the largest block's two planes; the colex pairs
    ``(hi, lo)`` of all d orbitals, whose first C(f, 2) entries are the
    colex pairs of any f orbitals; and the flat colex index of each entry
    of the wedge basis, which reorders the sum to it.  All arrays are
    read-only.
    """
    n = N - 2
    m = next(k for k in range(d + 1)
             if max(comb(d - k, n - t) for t in range(min(k, n) + 1)) <= cap)
    L = d - m
    groups = []
    for t, us in groupby(sorted(range(1 << m), key=int.bit_count), key=int.bit_count):
        if 0 <= n - t <= L:
            us = list(us)
            ts = np.array(us, dtype=np.int64) << L
            tops = np.array([[L + q for q in range(m) if not u >> q & 1] for u in us],
                            dtype=np.int64).reshape(len(us), m - t)
            groups.append((n - t, ts, tops))
    size = max(2 * comb(L + tops.shape[1], 2) * comb(L, n_low) for n_low, _, tops in groups)
    i, j = wedge_index(d)
    colex = j * (j - 1) // 2 + i  # the colex row of each wedge pair
    hi, lo = np.empty_like(j), np.empty_like(i)
    hi[colex], lo[colex] = j, i  # the wedge pairs in colex order
    wedge = colex[:, None] * len(colex) + colex
    for part in (hi, lo, wedge, *(a for group in groups for a in group[1:])):
        part.setflags(write=False)
    return L, groups, size, (hi, lo), wedge


def gram_block_shape(d: int, N: int) -> tuple[int, int]:
    """The number of blocks in the Gram sum of a (d, N) state and the most
    (N-2)-particle columns in one, read off the cached plan that
    :func:`compute_gamma2` runs at the current ``GRAM_CHUNK``."""
    L, groups, *_ = _gram_blocks(d, N, GRAM_CHUNK)
    return (sum(len(ts) for _, ts, _ in groups),
            max(comb(L, n_low) for n_low, _, _ in groups))


def compute_gamma2(psi: SectorVector) -> TwoBodyOperator:
    """Assemble the two-body reduced operator of a normalized state, or of
    each state of a stack (B, dim), one state at a time.

    Returns twice the transposed Gram matrix of the pair-annihilated vectors
    y_ij = c_j c_i psi, summed over the blocks of :func:`_gram_blocks`, runs
    of at most ``GRAM_CHUNK`` (N-2)-particle columns that share the
    occupation T of the top orbitals (one block for small sectors).  y_ij
    vanishes on a column holding i or j, so a block has rows only for the
    C(d-|T|, 2) pairs outside T, in colex order, and its product lands on
    those rows and columns of the sum by one flat scatter (the identity for
    T = 0, whose rows are every pair in order).  Each block B = X + iY is
    read straight from psi's real and imaginary parts into the two real planes
    of Z = [X; Y]: psi's masks with top occupation U form one run, ordered
    as the low masks.  Low pairs i < j come from the run of T along the
    pair table of :func:`_low_hops`, low i with top j from the runs of
    T + j along its single table, and top pairs i < j are the runs of
    T + i + j themselves, each read by one gather per plane; the
    Jordan-Wigner sign of the top orbitals is one constant per run.  Only
    nonzero entries are written: blocks with one |T| write the same
    entries, so the planes are zeroed once per |T|.
    With Q = Z Z^T, one symmetric real product per state,
    conj(B) B^T = (Q_XX + Q_YY) + i (Q_XY - Q_YX), Q_YX = Y X^T the lower
    left quadrant, so the sum is Hermitian by construction; it runs in
    colex pair order and is reordered to the wedge basis once at the end.
    A single state is a stack of one.  The states of a stack take each
    block in turn, through one state's planes and product, so every index
    is one state's and is built once per block, and each state gets the
    same bits as alone.  ``mat`` is (P, P) for a single state and
    (B, P, P) for a stack, ``trace_residual`` a float or a (B,) array.
    A (d, N) refused by :func:`admit_gamma2` raises before anything is
    allocated.  Each trace is checked against N(N-1) ||psi||^2; a residual
    above ``TRACE_TOL`` aborts, since at these sizes it signals an
    implementation bug, not roundoff.
    """
    basis = psi.basis
    d, N = basis.d, basis.N
    admit_gamma2(d, N)
    nsq = psi.norm_sq().reshape(-1)
    if np.any(np.abs(np.sqrt(nsq) - 1.0) > STATE_NORM_TOL):
        raise ValueError("state must be normalized")
    n_states, n_pairs = len(nsq), d * (d - 1) // 2
    L, groups, size, (hi, lo), wedge = _gram_blocks(d, N, GRAM_CHUNK)
    buf = np.empty(size)  # the largest block's planes; every block reuses it
    acc = np.zeros((n_states, n_pairs, n_pairs), dtype=np.complex128)
    states = [(a.real, a.imag, total) for a, total in
              zip(psi.amplitudes.reshape(n_states, -1), acc.reshape(n_states, -1))]
    for n_low, ts, tops in groups:
        n_top = tops.shape[1]
        n_free, n_tt = L + n_top, n_top * (n_top - 1) // 2
        n_rows, width = n_free * (n_free - 1) // 2, comb(L, n_low)
        z = buf[:2 * n_rows * width].reshape(2 * n_rows, width)
        z.fill(0)  # every block and state of the group writes the same entries
        zx, zy = z[:n_rows].reshape(-1), z[n_rows:].reshape(-1)  # the X and Y planes, flat
        # (dst, src, sign) tables; low i < j: the run of T
        dp, sp, gp = _low_hops(L, n_low + 2, 2)
        t_col = keys = ts[:, None]
        if n_top:  # low i, top j: the runs of T + j; top i < j: the runs of T + i + j
            dst1, s1, g1 = _low_hops(L, n_low + 1, 1)
            heads = np.arange(L, n_free)
            heads = heads * (heads - 1) // 2  # the row of pair (0, L + q), free top q
            d1 = heads[:, None] * width + dst1
            qs, ps = hi[:n_tt], lo[:n_tt]  # the free top pairs p < q
            rows_tt = heads[qs] + L + ps
            bits = 1 << tops
            below = np.bitwise_count(t_col & (bits - 1))
            # past c_i, c_j crosses the other n_low low orbitals and T below j
            lt_sign = 1.0 - 2.0 * ((n_low + below) & 1)
            tt_sign = 1.0 - 2.0 * ((below[:, qs] + below[:, ps]) & 1)
            keys = np.concatenate((t_col, t_col | bits, t_col | bits[:, qs] | bits[:, ps]), axis=1)
        starts = np.searchsorted(basis.states, keys)
        free = np.concatenate((np.broadcast_to(np.arange(L), (len(ts), L)), tops), axis=1)
        i, j = free[:, lo[:n_rows]], free[:, hi[:n_rows]]
        rows = j * (j - 1) // 2 + i  # each block's rows of the sum, in colex order
        q = np.empty((2 * n_rows, 2 * n_rows))
        blk = np.empty((n_rows, n_rows), dtype=np.complex128)
        for k, run in enumerate(starts):
            flat = rows[k, :, None] * n_pairs + rows[k]
            src_ll = run[0] + sp
            if n_top:
                src_lt, sg_lt = run[1:1 + n_top, None] + s1, lt_sign[k, :, None] * g1
                src_tt, sg_tt = run[1 + n_top:, None] + np.arange(width), tt_sign[k, :, None]
            for re, im, total in states:
                zx[dp] = re[src_ll] * gp
                zy[dp] = im[src_ll] * gp
                if n_top:
                    zx[d1] = re[src_lt] * sg_lt
                    zy[d1] = im[src_lt] * sg_lt
                    z[rows_tt] = re[src_tt] * sg_tt
                    z[n_rows + rows_tt] = im[src_tt] * sg_tt
                np.matmul(z, z.T, out=q)
                np.add(q[:n_rows, :n_rows], q[n_rows:, n_rows:], out=blk.real)
                blk.imag = q[n_rows:, :n_rows]
                total[flat] += blk
    residual = np.array([abs(2.0 * float(np.trace(a.real)) - N * (N - 1) * float(s))
                         for a, s in zip(acc, nsq)])
    if np.any(residual > TRACE_TOL):
        raise ArithmeticError(f"trace residual {np.max(residual):.3e} exceeds {TRACE_TOL:.1e}")
    acc.imag -= acc.imag.transpose(0, 2, 1).copy()  # the transpose of the sum
    mat = 2.0 * acc.reshape(n_states, -1)[:, wedge]
    if psi.amplitudes.ndim == 1:
        mat, residual = mat[0], float(residual[0])
    return TwoBodyOperator(d=d, n_particles=N, mat=mat, trace_residual=residual)


def spectral_decompose(g: TwoBodyOperator) -> SpectralData:
    """Full eigensystem of the reduced operator, or of each operator of a
    stack by one stacked ``eigh``, eigenvalues descending."""
    try:
        evals, evecs = np.linalg.eigh(g.mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("eigensolver did not converge") from exc
    order = np.argsort(-evals, axis=-1, kind="stable")
    return SpectralData(eigenvalues=np.take_along_axis(evals, order, -1),
                        wedge_vectors=np.take_along_axis(evecs, order[..., None, :], -1),
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
    entries evaluates all of it, or of B d**3 for a stack of B operators.
    Then ||c(u) psi||**2 = u^T gamma1 conj(u).
    """
    d = g.d
    iu, ju = wedge_index(d)
    index = np.zeros((d, d), dtype=np.intp)
    sign = np.zeros((d, d))
    index[iu, ju] = index[ju, iu] = np.arange(len(iu))
    sign[iu, ju], sign[ju, iu] = 1.0, -1.0
    # G[i, j, k, j] = sign[j, i] * sign[j, k] * blocks[j, i, k], where
    # blocks[j, i, k] is the wedge entry of pairs {j, i} and {j, k}; the sign
    # is 0 when j equals i or k
    blocks = g.mat[..., index[:, :, None], index[:, None, :]]
    trace2 = np.einsum("...jik,ji,jk->...ik", blocks, sign, sign)
    return trace2.swapaxes(-1, -2) / (2.0 * (g.n_particles - 1))


def partial_trace_residual(gamma1: np.ndarray, psi: SectorVector) -> float | np.ndarray:
    """max_i |gamma1[i, i] - <n_i>|: the partial trace, the one-body matrix of
    psi's reduced operator (:func:`one_body_matrix`), against the direct
    occupations of :func:`fock.occupations`; one float per state of a stack.
    """
    gaps = np.abs(np.diagonal(gamma1, axis1=-2, axis2=-1).real - occupations(psi))
    res = np.max(gaps, axis=-1)
    return res if res.ndim else float(res)


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
    first; then B = sum_k lam_k c(v_k) c(u_k).  sum_{i<j} conj(A[i, j]) c_j c_i
    is one term list of :func:`fock._scatter`, the pair rows
    ``(1 << i) | (1 << j)`` in wedge order, scaled by sqrt(2) once.
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
    i, j = wedge_index(basis.d)
    terms = zip((1 << i) | (1 << j), np.conj(phi.mat[i, j]))
    return np.sqrt(2.0) * _scatter(psi, terms, 2, create=False)


def expectation_fast(phi, psi: SectorVector) -> float:
    """Quadratic form <phi, G_psi phi> = 2 ||B psi||^2, no operator assembly."""
    return 2.0 * apply_pair_annihilator(phi, psi).norm() ** 2
