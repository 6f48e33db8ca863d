"""Verifiers for the eigenvalue bounds, operator inequalities, and trial states.

Every check produces a :class:`TheoremReport` whose margin is oriented so
that pass means margin >= -tolerance:

* ``thm1``            eigenvalue ceiling; margin = ceiling - eigenvalue.
* ``thm2``            trial-state floor; margin = observed - floor.
* ``prop_BB``         operator positivity; margin = smallest eigenvalue of the
                      gap operator D = N/2 - (N-2)/4 sum lam^2 (n_up + n_down) - B*B.
* ``prop_occupation`` mode-occupation floor; margin = worst occupation excess.
* ``norm_recursion``  two-sided norm inequality; margin = worst one-sided slack,
                      with the tolerance scaled by max(1, |bound|) because
                      the norms grow factorially with M.
* ``counterexample``  pairing-state overlap floor; margin = observed - floor.
* ``conjecture``      reporting only, never pass/fail.

The eigenpair checks take a :class:`rdm.SpectralData`, of one state or of
a batch, and read one object from it: the stack of eigenvector coefficient
matrices.  ``thm1`` takes sum lam**4 and lam_max of every kept eigenvector
of the batch from one batched product over that stack, and
``prop_occupation`` reads the pair planes of its matrices off one batched
SVD and takes the minimum of every ||c(w) psi||^2 over each plane, a
quadratic form in its state's one-body matrix, which is a partial trace of
the reduced operator.  Neither touches the state again.  Each returns the
rows of the whole batch as one :class:`EigenpairRows`: the arrays it
computed, held as columns, and a sequence of reports built when read.

Default tolerances: 1e-8 for bound margins, 1e-10 for structural identities.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from math import comb
from typing import NamedTuple

import numpy as np

from .canonical import plane_minima
from .fock import SectorSizeError, SectorVector, enumerate_sector
from .pairing import (DENSE_CAP, PairOperator, admit_pair_blocks, apply_B,
                      apply_B_star, dense_b_matrix, norm_sq_oracles, pair_blocks,
                      pair_expectation_and_norm, pair_grams, pairing_amplitudes,
                      pairing_states)
from .rdm import SpectralData, correlation_invariants

BOUND_TOL = 1e-8
STRUCTURE_TOL = 1e-10


@dataclass
class TheoremReport:
    """One verified (or reported) inequality with its margin.  Every value is
    plain JSON: None where it does not apply, every float finite."""

    kind: str
    params: dict
    observed: float | None = None
    bound: float | None = None
    margin: float | None = None
    passed: bool | None = None
    details: dict = field(default_factory=dict)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "observed": self.observed,
            "bound": self.bound,
            "margin": self.margin,
            "pass": self.passed,
            "details": self.details,
            "note": self.note,
        }


def _check_descending(lams: np.ndarray) -> None:
    """The coefficient order of a canonical form."""
    if np.any(np.diff(lams) > 1e-12):
        raise ValueError("coefficients must be non-negative and descending")


def theorem1_rhs(N: int, sum_lambda4: float | np.ndarray) -> float | np.ndarray:
    """Eigenvalue ceiling N / (1 + (N-2)/2 * sum lam**4), a float for a float
    and an array for an array of sum lam**4, every one of which must lie in
    (0, 1]."""
    if N < 2:
        raise ValueError("the ceiling is defined for N >= 2")
    if not np.all((0.0 < sum_lambda4) & (sum_lambda4 <= 1.0 + 1e-12)):
        raise ValueError("sum_lambda4 must lie in (0, 1]")
    rhs = N / (1.0 + 0.5 * (N - 2) * sum_lambda4)
    return rhs if np.ndim(rhs) else float(rhs)


def _kept(spectral: SpectralData, tol: float, tag: dict | list[dict] | None):
    """The eigenpairs with eigenvalue above ``tol`` of every state, in trial
    order, a single spectrum being a batch of one: the position of each
    one's state in the batch, its eigen index, eigenvalue and coefficient
    matrix; and one tag per state, ``tag`` itself if a list, else ``tag``
    (or none) for every state."""
    values = spectral.eigenvalues.reshape(-1, spectral.eigenvalues.shape[-1])
    members, keep = np.nonzero(values > tol)
    d = spectral.operator.d
    mats = spectral.matrices.reshape(values.shape + (d, d))[members, keep]
    tags = tag if isinstance(tag, list) else [tag or {}] * len(values)
    return members, keep, values[members, keep], mats, tags


@dataclass(frozen=True, eq=False)
class EigenpairRows(Sequence):
    """The ``kind`` rows of the kept eigenpairs of a batch of (d, N) states,
    held as columns until they are written.

    Batch row i checks eigenpair ``keep[i]`` of state ``members[i]``, tagged
    ``tags[members[i]]``, by the i-th entry of ``observed``, ``bound`` and
    ``margin`` (pass means margin >= -tol) and of each column of
    ``details``.  ``members`` ascend, so each state's rows are contiguous.
    As a read-only sequence it holds the batch rows of ``span``, all of
    them unless sliced, each a :class:`TheoremReport` built when read; a
    slice shares the batch's arrays.
    """

    kind: str
    d: int
    N: int
    tol: float
    tags: list[dict]
    members: np.ndarray
    keep: np.ndarray
    observed: np.ndarray
    bound: np.ndarray
    margin: np.ndarray
    details: dict[str, np.ndarray]
    span: range | None = None

    def __post_init__(self):
        if self.span is None:
            object.__setattr__(self, "span", range(len(self.members)))

    def __len__(self) -> int:
        return len(self.span)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, span=self.span[i])
        j = self.span[i]
        return TheoremReport(
            kind=self.kind, params=self.params(self.members[j].item(), self.keep[j].item()),
            observed=self.observed[j].item(), bound=self.bound[j].item(),
            margin=self.margin[j].item(), passed=bool(self.margin[j] >= -self.tol),
            details={key: col[j].item() for key, col in self.details.items()})

    def params(self, member: int, eigen_index) -> dict:
        """The params of the rows of state ``member`` at ``eigen_index``."""
        return {"d": self.d, "N": self.N, "eigen_index": eigen_index, **self.tags[member]}

    @property
    def passed(self) -> bool:
        """Whether every row passes."""
        rows = np.arange(self.span.start, self.span.stop, self.span.step)
        return bool(np.all(self.margin[rows] >= -self.tol))


def verify_theorem1(spectral: SpectralData, tol: float = BOUND_TOL,
                    tag: dict | list[dict] | None = None) -> EigenpairRows:
    """Check the correlational ceiling on every nonzero eigenpair of a
    two-body reduced operator, or of each operator of a batch, whose rows
    come in trial order, each tagged by its entry of the list ``tag``; the
    ``thm1`` rows of the whole batch are one :class:`EigenpairRows`, with
    details ``sum_lambda4`` and ``lambda_max``.

    Eigenvalues below ``tol`` are excluded: their eigenvectors are arbitrary
    within the numerical kernel and the ceiling is trivial there anyway.
    The ceiling needs an eigenvector only through sum lam**4, which comes
    with lam_max from the batched identities of
    :func:`rdm.correlation_invariants`, one call over the kept matrices of
    ``spectral.matrices`` of the whole batch; no canonical form is computed.
    """
    members, keep, eigenvalues, mats, tags = _kept(spectral, tol, tag)
    sum_lambda4, lambda_max = correlation_invariants(mats)
    g = spectral.operator
    ceilings = theorem1_rhs(g.n_particles, sum_lambda4)
    return EigenpairRows("thm1", g.d, g.n_particles, tol, tags, members, keep,
                         eigenvalues, ceilings, ceilings - eigenvalues,
                         {"sum_lambda4": sum_lambda4, "lambda_max": lambda_max})


def theorem2_floor(N: int, sum_lambda4: float, lambda_max_sq: float) -> float:
    """Trial-state floor N (1 - (N-2)/2 sum lam**4 - (N lam_max**2)**2 / 2)."""
    return N * (1.0 - 0.5 * (N - 2) * sum_lambda4 - 0.5 * (N * lambda_max_sq) ** 2)


def verify_theorem2(lambdas, N: int, tol: float = BOUND_TOL) -> TheoremReport:
    """Check that the normalized M = N/2 pairing state built from the
    coefficients ``lambdas`` of phi pushes <phi, G phi> above the
    correlational floor.

    With x = lam**2, Psi_M = (B*)^M |vacuum> and B = sum_k lam_k b_k,

        <phi, G phi> = 2 ||B Psi_M||^2 / ||Psi_M||^2
                     = 2 sum_{|T|=M-1} prod_T x (sum_{k not in T} x_k)^2 / e_M(x),

    read off the log-form recurrence of
    :func:`pairing.pair_expectation_and_norm` in O(K M); no state is built.
    ``details.norm_sq`` is ||Psi_M||^2 = (M!)^2 e_M(x) of
    :func:`pairing.norm_sq_oracles`, or None where that exceeds the float
    range, off the same scan.
    Preconditions (N even, N lam_max**2 <= 1) are reported as skipped, not
    failed: outside them the floor is not asserted.
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    s4 = float(np.sum(lams ** 4))
    lmax_sq = float(np.max(lams) ** 2) if len(lams) else 0.0
    params = {"N": N, "K": len(lams), "sum_lambda4": s4, "lambda_max_sq": lmax_sq}

    def skipped(reason):
        return TheoremReport(kind="thm2", params=params, passed=None,
                             note=f"skipped: {reason}")

    if N < 2 or N % 2:
        return skipped("N must be a positive even integer")
    if 2 * len(lams) < N:
        return skipped("coefficient list too short for N/2 pairs")
    if N * lmax_sq > 1.0 + 1e-12:
        return skipped(f"outside the admissible regime: N*lambda_max^2 = {N * lmax_sq!r} > 1")
    # sum lam**2 = 1 and N lam_max**2 <= 1, each within its tolerance, leave
    # at least N nonzero lam_k: the pairing state on N/2 pairs never vanishes
    lams = PairOperator(lams).lambdas  # finite, non-negative, sum lam**2 = 1
    _check_descending(lams)
    observed, norm_sq = pair_expectation_and_norm(lams, lams, N // 2)
    bound = theorem2_floor(N, s4, lmax_sq)
    margin = observed - bound
    return TheoremReport(kind="thm2", params=params, observed=observed,
                         bound=bound, margin=margin, passed=margin >= -tol,
                         details={"norm_sq": norm_sq if np.isfinite(norm_sq) else None})


class GapResult(NamedTuple):
    min_eigenvalue: float
    kernel_residual: float
    degenerate: bool


def admit_proposition(op: PairOperator, N: int) -> None:
    """Refuse N before any solve: ValueError unless N is a positive even
    integer, :class:`SectorSizeError` if a Gram :func:`proposition_gap`
    builds on M = (N - s) / 2 pairs exceeds the caps
    (:func:`pairing.admit_pair_blocks`)."""
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    admit_pair_blocks(op.n_pairs, N)


def proposition_gap(op: PairOperator, N: int) -> GapResult:
    """Positivity and optimality of the pair-operator inequality.

    D = N/2 - (N-2)/4 sum lam^2 (n_up + n_down) - B*B is block diagonal over
    the pair blocks of the (d, N) sector (see :func:`pairing.pair_blocks`), so
    its smallest eigenvalue is the minimum over batched dense solves, one
    per batch of blocks; the full sector is never built.  Each block of D is
    written in place over the Gram G = B*B of :func:`pairing.pair_grams`: the
    pair numbers are broken + 2 diag G, so the diagonal of D is
    N/2 (1 - diag G) - (N-2)/4 broken and its off-diagonal -G.  D is positive
    semidefinite, and the M = N/2 pairing state spans (part of) its kernel
    whenever that state is nonzero, that is whenever at least M of the
    lam_k are nonzero (else ``degenerate``).  The returned kernel residual
    is ||D Psi|| / ||Psi|| on the seniority-zero block, with Psi read off
    its closed form on that block's basis (:func:`pairing.pairing_amplitudes`),
    so nothing outside the blocks is built; NaN for a vanishing state.
    """
    admit_proposition(op, N)
    min_eig = np.inf
    for blocks in pair_blocks(op.lambdas, N):
        gap = pair_grams(blocks.coeffs, blocks.pairs)
        diag = np.arange(gap.shape[-1])
        gram_diag = gap[:, diag, diag]
        np.negative(gap, out=gap)
        gap[:, diag, diag] = (0.5 * N * (1.0 - gram_diag)
                              - 0.25 * (N - 2) * blocks.broken[:, None])
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gap).min()))
        if blocks.seniority == 0:
            amps = pairing_amplitudes(op.lambdas, N // 2)
            residual = (float("nan") if amps is None else
                        float(np.linalg.norm(gap[0] @ amps) / np.linalg.norm(amps)))
    return GapResult(min_eig, residual, amps is None)


def proposition_report(op: PairOperator, N: int,
                       tol: float = STRUCTURE_TOL) -> TheoremReport:
    """Wrap :func:`proposition_gap` as a pass/fail report."""
    result = proposition_gap(op, N)
    ok = result.min_eigenvalue >= -tol
    if not result.degenerate:
        ok = ok and result.kernel_residual < tol
    return TheoremReport(
        kind="prop_BB",
        params={"N": N, "K": op.n_pairs, "lambdas": op.lambdas.tolist()},
        observed=result.min_eigenvalue, bound=0.0, margin=result.min_eigenvalue,
        passed=ok,
        details={"kernel_residual": (None if result.degenerate
                                     else result.kernel_residual),
                 "degenerate": result.degenerate},
        note="pairing state vanishes; only positivity checked" if result.degenerate else "")


def eigenvector_occupation_check(spectral: SpectralData, tol: float = BOUND_TOL,
                                 tag: dict | list[dict] | None = None) -> EigenpairRows:
    """Occupation floor ||c(w) psi||^2 >= (Lambda/2) lam_k**2 for each
    eigenpair with Lambda > ``tol``, each pair k of the canonical form of the
    eigenvector's coefficient matrix in ``spectral.matrices``, and every
    unit w in the plane of u_k and v_k; over a batch of spectra, the rows
    come in trial order, each tagged by its entry of the list ``tag``.

    The paper states the floor for every canonical form, and rotating
    u_k, v_k within their plane leaves the form unchanged, so the floor
    holds on the whole plane and the check compares its minimum.  Each
    occupation ||c(w) psi||^2 is the quadratic form w^T gamma1 conj(w) in
    the one-body matrix ``spectral.one_body``, a partial trace of the
    reduced operator, and :func:`canonical.plane_minima` takes its minimum
    over the planes of all kept eigenvectors of the batch, each against its
    own state's one-body matrix, from one batched SVD.  A tie of
    several pairs is one space, compared with its smallest lam and named by
    its first pair.  The ``prop_occupation`` rows of the whole batch are one
    :class:`EigenpairRows`; each names its worst pair k, with its
    ``occupation`` and ``required`` floor, in its details.
    """
    members, keep, eigenvalues, mats, tags = _kept(spectral, tol, tag)
    g = spectral.operator
    lams, occ = plane_minima(mats, spectral.one_body.reshape(-1, g.d, g.d)[members])
    need = 0.5 * eigenvalues[:, None] * lams ** 2
    excess = occ - need
    rows, k = np.arange(len(keep)), np.argmin(excess, axis=1)
    return EigenpairRows("prop_occupation", g.d, g.n_particles, tol, tags, members, keep,
                         occ[rows, k], need[rows, k], excess[rows, k],
                         {"k": k, "occupation": occ[rows, k], "required": need[rows, k]})


def norm_recursion_check(op: PairOperator, M_max: int,
                         tol: float = BOUND_TOL) -> list[TheoremReport]:
    """Two-sided norm inequality for the pairing states, M = 1 .. M_max:

        (1 - (M-1) lam_max**2) M ||Psi_{M-1}||^2 <= ||Psi_M||^2
                                                 <= M ||Psi_{M-1}||^2.

    A step passes when its worst slack is at least -tol * max(1, |lower|):
    the norms reach 1e12 and beyond for a few dozen pairs, where an absolute
    slack would be below the rounding of a bound the uniform profile
    saturates.  Each report also carries the independent combinatorial norm,
    the relative agreement between construction and oracle, and the
    empirical second-order residual of the norm ratio (reported, never
    asserted: its coefficient is not pinned down).
    """
    if M_max < 1:
        raise ValueError(f"no recursion step in M_max = {M_max}")
    if M_max > op.n_pairs:
        raise ValueError("M_max cannot exceed the number of pairs")
    lmax_sq = float(np.max(op.lambdas) ** 2)
    s4 = float(np.sum(op.lambdas ** 4))
    reports = []
    states = pairing_states(op, M_max)
    prev = next(states).norm_sq
    oracles = norm_sq_oracles(op.lambdas, M_max)
    for M, state in enumerate(states, start=1):
        built, oracle = state.norm_sq, oracles[M]
        agree = abs(built - oracle) / max(1.0, abs(oracle))
        lower = (1.0 - (M - 1) * lmax_sq) * M * prev
        upper = M * prev
        margin = min(built - lower, upper - built,
                     oracle - lower, upper - oracle)
        second_order = (built / (M * prev) - (1.0 - (M - 1) * s4)
                        if prev > 0 else None)
        reports.append(TheoremReport(
            kind="norm_recursion",
            params={"M": M, "K": op.n_pairs, "lambdas": op.lambdas.tolist()},
            observed=built, bound=lower, margin=float(margin),
            passed=margin >= -tol * max(1.0, abs(lower)) and agree <= 1e-10,
            details={"lower": lower, "upper": upper, "oracle": oracle,
                     "oracle_agreement": agree,
                     "second_order_residual": second_order}))
        prev = built
    return reports


def sup_over_states(lambdas, N: int, method: str = "dense") -> float:
    """sup over normalized N-particle states of <phi, G_psi phi>.

    The supremum equals twice the largest eigenvalue of B*B on the N-particle
    sector, with B built from phi's coefficients ``lambdas``; no search is
    involved.
    ``dense`` diagonalizes the assembled matrix, ``iterative`` runs a
    matrix-free Lanczos iteration; the two must agree to 1e-8 where both run.
    Both work on the full sector and serve as oracles for the pair-block
    supremum that :func:`explore_conjecture` uses.
    """
    op = PairOperator(lambdas)
    d = op.d
    if N < 2 or N > d:
        raise ValueError(f"no admissible sector (d={d}, N={N})")
    sec = enumerate_sector(d, N)
    if method == "dense":
        if sec.dim > DENSE_CAP:
            raise SectorSizeError(
                f"sector dim {sec.dim} exceeds the dense cap {DENSE_CAP}")
        bmat = dense_b_matrix(op, N)
        top = float(np.linalg.eigvalsh(bmat.T @ bmat).max())
        return 2.0 * top
    if method == "iterative":
        import scipy.sparse.linalg

        def matvec(x):
            vec = SectorVector(sec, x)
            return apply_B_star(op, apply_B(op, vec)).amplitudes

        lin = scipy.sparse.linalg.LinearOperator(
            (sec.dim, sec.dim), matvec=matvec, dtype=np.complex128)
        v0 = np.ones(sec.dim) / np.sqrt(sec.dim)
        vals = scipy.sparse.linalg.eigsh(
            lin, k=1, which="LA", v0=v0, ncv=min(sec.dim, 40), tol=0,
            return_eigenvectors=False)
        return 2.0 * float(vals[0])
    raise ValueError(f"unknown method {method!r}")


def block_sups(lambdas, N: int) -> dict[int, float]:
    """Twice the largest eigenvalue of B*B in the pair blocks of each seniority.

    Keys are the numbers s of broken pairs present in the (d, N) sector; the
    largest value is sup <phi, G phi> over the whole sector, the one at s = 0
    the seniority-zero supremum.  One block per seniority is solved, the
    one that breaks the s smallest coefficients: every entry of a block's
    B*B (sum_{k in S} c_k^2 on the diagonal, c_k c_l at a move of pair k
    to l) is nondecreasing in each kept coefficient c >= 0, and its
    spectrum depends only on the multiset of c, so with pairs matched by
    rank every block of seniority s is entrywise at most that one, and by
    Perron-Frobenius monotonicity its largest eigenvalue is the largest of
    the seniority.  It is solved as ``pairing.pair_grams`` on the side
    ``pairing.admit_pair_blocks(..., top=True)`` gives it, max(M, K' + 1 - M)
    of its K' pairs, the smaller basis: both sides share their largest
    eigenvalue (see :mod:`pairing`).  With M = 0 the block is the vacuum,
    where B*B is the 1 x 1 zero.
    """
    lams = PairOperator(lambdas).lambdas
    K = len(lams)
    ranked = np.argsort(-lams, kind="stable")
    sups: dict[int, float] = {}
    for s, pairs in admit_pair_blocks(K, N, top=True).items():
        kept = np.sort(ranked[:K - s])  # the K - s largest, in their order
        gram = pair_grams(lams[kept][None], pairs)
        sups[s] = 2.0 * float(np.linalg.eigvalsh(gram).max())
    return sups


def explore_conjecture(lambdas, N_list) -> list[TheoremReport]:
    """Empirical constant for the highly correlated regime, reporting only.

    For each admissible even N the supremum S = sup <phi, G phi> over the
    full (d, N) sector is computed and the constant
    C_emp = (S/N - 1 + (N-2)/2 sum lam^4) / (N lam_max^2)^2 is reported,
    together with the trial-state floor and ceiling for context.  The
    statement being probed is open, so no report here ever passes or fails.
    S is the largest of the :func:`block_sups`, each from the one pair
    block of its seniority that keeps the largest coefficients, which
    dominates every other block of that seniority entrywise and so carries
    its largest eigenvalue; no other block is built.  The seniority-zero
    value is recorded too, and ``seniority_gap`` is S minus it, so any gain
    from broken pairs is visible.  If a Gram :func:`block_sups` builds for
    any N that is not skipped exceeds the caps, :class:`SectorSizeError` is
    raised before the first N is solved.
    """
    lams = np.asarray(lambdas, dtype=np.float64)
    s4 = float(np.sum(lams ** 4))
    lmax_sq = float(np.max(lams) ** 2)
    d = PairOperator(lams).d

    def skip_note(N):
        if N < 2 or N % 2 or N > d:
            return "skipped: N not admissible"
        if N * lmax_sq > 1.0 + 1e-12:
            return f"skipped: N*lambda_max^2 = {N * lmax_sq!r} > 1"
        return ""

    notes = [skip_note(N) for N in N_list]
    for N, note in zip(N_list, notes):
        if not note:
            admit_pair_blocks(len(lams), N, top=True)
    reports = []
    for N, note in zip(N_list, notes):
        params = {"N": int(N), "K": len(lams), "sum_lambda4": s4,
                  "lambda_max_sq": lmax_sq}
        if note:
            reports.append(TheoremReport(kind="conjecture", params=params,
                                         passed=None, note=note))
            continue
        sups = block_sups(lams, N)
        sup_sen, sup = sups[0], max(sups.values())
        c_emp = (sup / N - 1.0 + 0.5 * (N - 2) * s4) / (N * lmax_sq) ** 2
        details = {"sup_seniority_zero": sup_sen, "sector_dim": comb(d, N),
                   "sup_full": sup, "seniority_gap": sup - sup_sen,
                   "c_emp": c_emp, "floor": theorem2_floor(N, s4, lmax_sq),
                   "ceiling": theorem1_rhs(N, s4)}
        reports.append(TheoremReport(kind="conjecture", params=params,
                                     observed=sup, passed=None, details=details))
    return reports


def counterexample_driver(lambda_profile, N: int,
                          tol: float = BOUND_TOL) -> TheoremReport:
    """Pairing-state overlap floor for a fixed coefficient profile.

    Takes phi from the profile (K = len(profile) pairs) and the N-particle
    uniform pairing state Psi_M, M = N/2, on the first N pairs, and
    certifies

        <phi, G phi>  >=  (N/2 + 1) (sum_{k<=N} lam_k)^2 / N
                      >=  (1/2) (sum_{k<=N} lam_k)^2.

    The left side is 2 ||B Psi_M||^2 / ||Psi_M||^2 with B from the profile.
    With state coefficients 1/sqrt(N) on the first N pairs every set T of
    M - 1 pairs has the same weight in the sum of
    :func:`pairing.pair_expectation_and_norm`, and
    (sum_{k not in T} lam_k)^2 counts each lam_k^2 in C(N-1, M-1) of them
    and each lam_k lam_l, k != l, in C(N-2, M-1).  So, with S1 and S2 the
    sum and the sum of squares of lam_1 .. lam_N,

        <phi, G phi> = S2 + N (S1^2 - S2) / (2 (N - 1)),

    read in O(N) with no scan and no state built.  The log-form recurrence
    of :func:`pairing.pair_expectation_and_norm` on the same state,
    O(N M), is its oracle in the tests.  Growing this left side in N while
    the delocalization ceiling stays fixed is what rules out an
    N-independent strong bound; the uniform ceiling 2 / sum lam^4 is
    reported for that comparison.
    """
    lams = np.asarray(lambda_profile, dtype=np.float64)
    K = len(lams)
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    if K < N:
        raise ValueError(f"profile too short: need at least N={N} coefficients")
    lams = PairOperator(lams).lambdas  # finite, non-negative, sum lam**2 = 1
    _check_descending(lams)
    head_sum = float(np.sum(lams[:N]))
    head_sq = float(np.sum(lams[:N] ** 2))
    observed = head_sq + N * (head_sum ** 2 - head_sq) / (2 * (N - 1))
    overlap_floor = (0.5 * N + 1.0) * head_sum ** 2 / N
    half_floor = 0.5 * head_sum ** 2
    margin = observed - overlap_floor
    return TheoremReport(
        kind="counterexample",
        params={"N": N, "K": K, "head_sum": head_sum},
        observed=observed, bound=overlap_floor, margin=margin,
        passed=margin >= -tol,
        details={"half_sum_floor": half_floor,
                 "uniform_ceiling": 2.0 / float(np.sum(lams ** 4))})


def counterexample_sweep(profiles, tol: float = BOUND_TOL) -> list[TheoremReport]:
    """Run the overlap floor over (N, profile) pairs and check growth in N.

    The particle numbers must be strictly increasing, or growth in N is not
    defined: :class:`ValueError` is raised before any run.
    """
    n_list = [N for N, _ in profiles]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"growth in N needs strictly increasing particle numbers, "
                         f"not {n_list}")
    reports = [counterexample_driver(lams, N, tol) for N, lams in profiles]
    if len(reports) > 1:
        values = [r.observed for r in reports]
        increasing = all(b > a for a, b in zip(values, values[1:]))
        reports.append(TheoremReport(
            kind="counterexample",
            params={"aspect": "growth",
                    "N_list": [r.params["N"] for r in reports]},
            observed=values[-1], bound=values[0],
            margin=min(b - a for a, b in zip(values, values[1:])),
            passed=increasing,
            details={"values": values}))
    return reports
