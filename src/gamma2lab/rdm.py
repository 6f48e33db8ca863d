"""Two-body reduced operators of N-fermion states.

The reduced operator of a normalized sector vector is represented on the
antisymmetric two-particle subspace, i.e. on the wedge basis e_i ^ e_j with
i < j, which has dimension d(d-1)/2.  Its matrix element between e_i ^ e_j
and e_k ^ e_l equals 2 <psi, c*_k c*_l c_j c_i psi>, so the whole operator
is assembled from the Gram matrix of the pair-annihilated vectors
c_j c_i psi.  This makes positivity and the trace value N(N-1) structural
rather than accidental.

Quadratic forms <phi, G phi> can also be evaluated without assembling G:
with phi in canonical form, the pair annihilator
B = sum_k lam_k c(v_k) c(u_k) satisfies <phi, G phi> = 2 ||B psi||^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .canonical import (AntisymmetricTensor, CanonicalForm,
                        tensor_from_wedge_amplitudes, wedge_pairs)
from .fock import (SectorMismatchError, SectorVector, apply_annihilate,
                   apply_annihilate_vector, enumerate_sector)

HERMITICITY_TOL = 1e-10


@dataclass
class TwoBodyOperator:
    """Hermitian matrix on the wedge basis of ordered pairs (i, j), i < j."""

    d: int
    n_particles: int
    mat: np.ndarray
    hermiticity_defect: float = 0.0

    @property
    def pair_dim(self) -> int:
        return self.d * (self.d - 1) // 2


@dataclass
class SpectralData:
    """Full eigensystem, descending, with eigenvectors as antisymmetric tensors."""

    eigenvalues: np.ndarray
    eigenvectors: list[AntisymmetricTensor] = field(default_factory=list)


def compute_gamma2(psi: SectorVector, *, norm_tol: float = 1e-10,
                   hermiticity_tol: float = HERMITICITY_TOL) -> TwoBodyOperator:
    """Assemble the two-body reduced operator of a normalized state.

    Builds y_ij = c_j c_i psi for every ordered pair and returns twice the
    transposed Gram matrix of those columns.  The pre-hermitization asymmetry
    is recorded; anything above ``hermiticity_tol`` aborts, since at these
    sizes a larger defect signals an implementation bug, not roundoff.
    """
    basis = psi.basis
    d, N = basis.d, basis.N
    if N < 2:
        raise SectorMismatchError("two-body reduction needs at least two particles")
    if abs(psi.norm() - 1.0) > norm_tol:
        raise ValueError("state must be normalized")
    pairs = wedge_pairs(d)
    lower = enumerate_sector(d, N - 2)
    y = np.empty((lower.dim, len(pairs)), dtype=np.complex128)
    for p, (i, j) in enumerate(pairs):
        if j == i + 1:  # wedge_pairs is row-major: row i starts here
            partial = apply_annihilate(i, psi)
        y[:, p] = apply_annihilate(j, partial).amplitudes
    gram = y.conj().T @ y
    g = 2.0 * gram.T
    defect = float(np.max(np.abs(g - g.conj().T))) if g.size else 0.0
    if defect > hermiticity_tol:
        raise ArithmeticError(f"hermiticity defect {defect:.3e} exceeds {hermiticity_tol:.1e}")
    g = 0.5 * (g + g.conj().T)
    return TwoBodyOperator(d=d, n_particles=N, mat=g, hermiticity_defect=defect)


def spectral_decompose(g: TwoBodyOperator) -> SpectralData:
    """Full eigensystem of the reduced operator, eigenvalues descending.

    Eigenvectors are returned as antisymmetric tensors, ready for the
    canonical decomposition.
    """
    try:
        evals, evecs = np.linalg.eigh(g.mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError("eigensolver did not converge") from exc
    order = np.argsort(-evals, kind="stable")
    tensors = [tensor_from_wedge_amplitudes(g.d, evecs[:, k]) for k in order]
    return SpectralData(eigenvalues=evals[order], eigenvectors=tensors)


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
    """Apply B = sum_k lam_k c(v_k) c(u_k) built from phi, (d, N) -> (d, N-2).

    Accepts a canonical form (vectors in psi's orbital basis) or a raw
    antisymmetric tensor, for which B = sum_{i<j} conj(sqrt(2) A[i, j]) c_j c_i.
    """
    basis = psi.basis
    if basis.N < 2:
        raise SectorMismatchError("pair annihilation needs at least two particles")
    target = enumerate_sector(basis.d, basis.N - 2)
    out = np.zeros(target.dim, dtype=np.complex128)
    if isinstance(phi, CanonicalForm):
        if phi.d != basis.d:
            raise SectorMismatchError("canonical vectors live in a different basis")
        for k in range(phi.n_pairs):
            lam = phi.lambdas[k]
            if lam == 0.0:
                continue
            step = apply_annihilate_vector(phi.v(k), apply_annihilate_vector(phi.u(k), psi))
            out += lam * step.amplitudes
    elif isinstance(phi, AntisymmetricTensor):
        if phi.d != basis.d:
            raise SectorMismatchError("tensor dimension does not match the state")
        amps = phi.wedge_amplitudes()
        partial_of = None
        for p, (i, j) in enumerate(wedge_pairs(basis.d)):
            c = np.conj(amps[p])
            if c == 0.0:
                continue
            if partial_of != i:  # wedge_pairs is row-major: one c_i psi at a time
                partial, partial_of = apply_annihilate(i, psi), i
            out += c * apply_annihilate(j, partial).amplitudes
    else:
        raise TypeError("phi must be a CanonicalForm or AntisymmetricTensor")
    return SectorVector(target, out)


def expectation_fast(phi, psi: SectorVector) -> float:
    """Quadratic form <phi, G_psi phi> = 2 ||B psi||^2, no operator assembly."""
    return 2.0 * apply_pair_annihilator(phi, psi).norm() ** 2
