"""Two-body reduced operators: assembly, spectra, and the fast quadratic form."""

import tracemalloc
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamma2lab.fock as fock
import gamma2lab.rdm as rdm
from gamma2lab.canonical import (AntisymmetricTensor, NotNormalizedError,
                                 canonical_from_lambdas,
                                 correlation_measures, elementary_wedge,
                                 random_tensor, tensor_inner, youla_decompose)
from gamma2lab.cli import random_state
from gamma2lab.fock import (SectorMismatchError, SectorSizeError,
                            apply_annihilate, apply_annihilate_vector,
                            slater_state)
from gamma2lab.pairing import PairOperator, build_pairing_state
from gamma2lab.rdm import (admit_gamma2, compute_gamma2, correlation_invariants,
                           expectation, expectation_fast, one_body_matrix,
                           partial_trace_residual, spectral_decompose)

ORACLE_TOL = 1e-12


def yang_state(n_pairs, m):
    op = PairOperator.from_lambdas(np.full(n_pairs, 1 / np.sqrt(n_pairs)))
    return build_pairing_state(op, m).vector.normalized()


class TestAssembly:
    def test_slater_minimal(self):
        g = compute_gamma2(slater_state(2, [0, 1]))
        assert g.mat.shape == (1, 1)
        assert abs(g.mat[0, 0] - 2.0) < 1e-14
        assert abs(np.trace(g.mat).real - 2.0) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_identity_random(self, seed):
        psi = random_state(8, 4, seed)
        g = compute_gamma2(psi)
        assert abs(np.trace(g.mat).real - 12.0) < 1e-10
        assert g.trace_residual < 1e-12

    def test_positivity_and_yang_bound(self):
        psi = random_state(8, 4, 99)
        evals = spectral_decompose(compute_gamma2(psi)).eigenvalues
        assert evals.min() > -1e-10
        assert evals.max() < 4 + 1e-9

    def test_requires_two_particles(self):
        with pytest.raises(SectorMismatchError):
            compute_gamma2(slater_state(4, [1]))

    def test_requires_normalization(self):
        psi = random_state(6, 3, 0)
        with pytest.raises(ValueError):
            compute_gamma2(2.0 * psi)

    def test_yang_pairing_top_eigenvalue(self):
        g = compute_gamma2(yang_state(4, 2))
        evals = spectral_decompose(g).eigenvalues
        assert abs(evals[0] - 3.0) < 1e-9  # N/2 + 1 with N = 4


class TestSpectralDecompose:
    def test_slater_spectrum(self):
        sd = spectral_decompose(compute_gamma2(slater_state(4, [0, 1])))
        assert abs(sd.eigenvalues[0] - 2.0) < 1e-12
        assert np.max(np.abs(sd.eigenvalues[1:])) < 1e-12

    def test_eigenvalue_sum_is_trace(self):
        psi = random_state(8, 4, 5)
        sd = spectral_decompose(compute_gamma2(psi))
        assert abs(np.sum(sd.eigenvalues) - 12.0) < 1e-9

    def test_yang_top_eigenvector_is_uniform(self):
        sd = spectral_decompose(compute_gamma2(yang_state(4, 2)))
        from gamma2lab.canonical import reconstruct
        phi_n = reconstruct(canonical_from_lambdas(np.full(4, 0.5)))
        assert abs(tensor_inner(phi_n, AntisymmetricTensor(8, sd.matrices[0]))) > 1 - 1e-10

    def test_eigenvectors_exactly_antisymmetric(self):
        sd = spectral_decompose(compute_gamma2(random_state(6, 3, 2)))
        for a in sd.matrices[:3]:
            assert np.array_equal(a, -a.T)

    def test_eigenvectors_orthonormal(self):
        sd = spectral_decompose(compute_gamma2(random_state(6, 3, 4)))
        mats = sd.matrices.reshape(len(sd.matrices), -1)
        gram = mats.conj() @ mats.T
        assert np.max(np.abs(gram - np.eye(len(mats)))) < 1e-9


class TestExpectation:
    def test_eigenvector_gives_eigenvalue(self):
        g = compute_gamma2(random_state(6, 3, 8))
        sd = spectral_decompose(g)
        for lam, a in list(zip(sd.eigenvalues, sd.matrices))[:4]:
            assert abs(expectation(AntisymmetricTensor(6, a), g) - lam) < 1e-9

    def test_orthogonal_to_range_is_zero(self):
        # a Slater state never links orbitals it does not occupy
        g = compute_gamma2(slater_state(6, [0, 1]))
        assert abs(expectation(elementary_wedge(6, 2, 3), g)) < 1e-14

    def test_dimension_mismatch(self):
        g = compute_gamma2(slater_state(4, [0, 1]))
        with pytest.raises(SectorMismatchError):
            expectation(elementary_wedge(6, 0, 1), g)


class TestExpectationFast:
    def test_slater_saturation(self):
        psi = slater_state(2, [0, 1])
        form = canonical_from_lambdas([1.0])
        assert abs(expectation_fast(form, psi) - 2.0) < 1e-12

    def test_absent_pairs_give_zero(self):
        from gamma2lab.canonical import CanonicalForm
        psi = slater_state(8, [0, 1, 2, 3])
        vecs = np.zeros((8, 2), dtype=complex)
        vecs[6, 0] = 1.0  # the single pair sits on unoccupied orbitals 6, 7
        vecs[7, 1] = 1.0
        form = CanonicalForm(np.array([1.0]), vecs)
        assert expectation_fast(form, psi) == 0.0

    def test_uniform_on_pairing_state(self):
        psi = yang_state(4, 2)
        form = canonical_from_lambdas(np.full(4, 0.5))
        assert abs(expectation_fast(form, psi) - 3.0) < 1e-9

    def test_a_stack_is_refused(self):
        with pytest.raises(SectorMismatchError, match="stack"):
            expectation_fast(canonical_from_lambdas(np.full(3, 3 ** -0.5)),
                             random_state(6, 3, [1, 2]))

    @pytest.mark.parametrize("seed", range(8))
    def test_dual_path_agreement(self, seed):
        rng = np.random.default_rng(seed)
        phi = random_tensor(8, rng)
        psi = random_state(8, 4, 1000 + seed)
        g = compute_gamma2(psi)
        slow = expectation(phi, g)
        fast_tensor = expectation_fast(phi, psi)
        fast_form = expectation_fast(youla_decompose(phi), psi)
        assert abs(slow - fast_tensor) < 1e-9
        assert abs(slow - fast_form) < 1e-9


# --- fast paths against independent oracles, d <= 10 ------------------------


@st.composite
def states(draw):
    """Normalized states with d <= 10: random, Slater determinants (rank-one,
    highly degenerate spectra) and embedded pairing states (degenerate too)."""
    kind = draw(st.sampled_from(["random", "slater", "pairing"]))
    if kind == "pairing":
        raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)),
                            min_size=1, max_size=5))
        m = draw(st.integers(1, len(raw)))
        lams = np.sort(np.asarray(raw))[::-1]
        if np.count_nonzero(lams) < m:  # the state would vanish
            lams = np.ones(len(raw))
        op = PairOperator.from_lambdas(lams / np.linalg.norm(lams))
        return build_pairing_state(op, m).vector.normalized()
    d = draw(st.integers(2, 10))
    n = draw(st.integers(2, d))
    if kind == "slater":
        return slater_state(d, draw(st.permutations(range(d)))[:n])
    return random_state(d, n, draw(st.integers(0, 2 ** 31)))


def antisymmetric_extension(g):
    """G[i, j, k, l] from the wedge matrix, entry by entry."""
    d = g.d
    pos = {pair: p for p, pair in enumerate(combinations(range(d), 2))}
    big = np.zeros((d, d, d, d), dtype=complex)
    for (i, j), p in pos.items():
        for (k, l), q in pos.items():
            v = g.mat[p, q]
            big[i, j, k, l], big[j, i, k, l] = v, -v
            big[i, j, l, k], big[j, i, l, k] = -v, v
    return big


def unchunked_gamma2(psi):
    """2 (Y^H Y)^T with Y's columns c_j c_i psi, in one product, hermitized."""
    d = psi.basis.d
    y = np.stack([apply_annihilate(j, apply_annihilate(i, psi)).amplitudes
                  for i, j in combinations(range(d), 2)], axis=1)
    g = 2.0 * (y.conj().T @ y).T
    return 0.5 * (g + g.conj().T)


class TestIdentityOracles:
    @given(states())
    @settings(max_examples=40, deadline=None)
    def test_invariants_match_canonical_form(self, psi):
        sd = spectral_decompose(compute_gamma2(psi))
        s4, lmax = correlation_invariants(sd.matrices)
        # kernel eigenvectors are arbitrary and never decomposed by a check
        for k in np.flatnonzero(sd.eigenvalues > 1e-8):
            ref = correlation_measures(youla_decompose(
                AntisymmetricTensor(psi.basis.d, sd.matrices[k])))
            assert abs(s4[k] - ref.sum_lambda4) < ORACLE_TOL
            assert abs(lmax[k] - ref.lambda_max) < ORACLE_TOL

    @given(st.integers(2, 10), st.integers(0, 2 ** 31))
    @settings(max_examples=30, deadline=None)
    def test_invariants_of_random_tensors(self, d, seed):
        tensor = random_tensor(d, np.random.default_rng(seed))
        s4, lmax = correlation_invariants(tensor.mat[None])
        ref = correlation_measures(youla_decompose(tensor))
        assert abs(s4[0] - ref.sum_lambda4) < ORACLE_TOL
        assert abs(lmax[0] - ref.lambda_max) < ORACLE_TOL

    @given(states(), st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_occupation_quadratic_form(self, psi, seed):
        gamma1 = one_body_matrix(compute_gamma2(psi))
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(psi.basis.d) + 1j * rng.standard_normal(psi.basis.d)
        u /= np.linalg.norm(u)
        fast = float((u @ gamma1 @ u.conj()).real)
        assert abs(fast - apply_annihilate_vector(u, psi).norm() ** 2) < ORACLE_TOL

    @given(states())
    @settings(max_examples=40, deadline=None)
    def test_partial_trace_identity(self, psi):
        d, n = psi.basis.d, psi.basis.N
        g = compute_gamma2(psi)
        trace2 = np.einsum("ijkj->ik", antisymmetric_extension(g))
        hops = [apply_annihilate(i, psi) for i in range(d)]
        overlap = np.array([[a.inner(b) for b in hops] for a in hops])
        # trace2[i, k] = 2 (N-1) <c_k psi, c_i psi> = 2 (N-1) overlap[k, i]
        assert np.max(np.abs(trace2 - 2 * (n - 1) * overlap.T)) < ORACLE_TOL
        gamma1 = one_body_matrix(g)
        assert np.max(np.abs(gamma1 - overlap)) < ORACLE_TOL
        residual = partial_trace_residual(gamma1, psi)
        assert residual < ORACLE_TOL
        diag = np.diagonal(gamma1).real
        assert residual == max(abs(float(diag[i]) - fock.occupations(psi)[i])
                               for i in range(d))

    # block caps from one column per block through 7 and one short of the
    # (N-2)-particle sector (m = 1 top orbital) to one block (m = 0)
    @pytest.mark.parametrize("chunk", [1, 7, "sector-1", 10 ** 9])
    @given(psi=states())
    @settings(max_examples=15, deadline=None)
    def test_chunked_gram_matches_single_product(self, chunk, psi):
        if chunk == "sector-1":
            chunk = max(1, comb(psi.basis.d, psi.basis.N - 2) - 1)
        with mock.patch.object(rdm, "GRAM_CHUNK", chunk):
            g = compute_gamma2(psi)
        assert np.max(np.abs(g.mat - unchunked_gamma2(psi))) < 1e-13
        assert g.trace_residual < 1e-12

    # the default cap gives one block for every d <= 10; 5 and 1 split the
    # sector by up to d top orbitals
    @pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 11) for n in range(2, d + 1)])
    def test_blocked_gram_matches_single_product(self, d, n):
        psi = random_state(d, n, 17 * d + n)
        ref = unchunked_gamma2(psi)
        for chunk in (rdm.GRAM_CHUNK, 5, 1):
            with mock.patch.object(rdm, "GRAM_CHUNK", chunk):
                g = compute_gamma2(psi)
            assert np.max(np.abs(g.mat - ref)) < 1e-13
            assert np.array_equal(g.mat, g.mat.conj().T)
            assert g.trace_residual < 1e-12

    # the default cap splits these by 2, 1 and 4 top orbitals, so blocks read
    # low pairs, low-top pairs and (but at (15, 6)) top pairs
    @pytest.mark.parametrize("d,n", [(14, 7), (15, 6), (16, 8)])
    def test_default_split_matches_single_product(self, d, n):
        assert rdm._gram_blocks(d, n, rdm.GRAM_CHUNK)[0] < d
        psi = random_state(d, n, 17 * d + n)
        g = compute_gamma2(psi)
        assert np.max(np.abs(g.mat - unchunked_gamma2(psi))) < 1e-13
        assert np.array_equal(g.mat, g.mat.conj().T)
        assert g.trace_residual < 1e-12

    def test_unnormalized_column_refused(self):
        a = random_tensor(6, np.random.default_rng(3)).mat
        correlation_invariants(a[None])
        with pytest.raises(NotNormalizedError):
            correlation_invariants(1.01 * a[None])


class TestGramBlocks:
    @pytest.mark.parametrize("d,n,chunk,shape", [
        (8, 4, rdm.GRAM_CHUNK, (1, 28)),
        (20, 10, rdm.GRAM_CHUNK, (256, 924)),
        (8, 4, 8, (11, 6)),
        (9, 5, 3, (42, 3)),
    ])
    def test_block_shape(self, d, n, chunk, shape):
        with mock.patch.object(rdm, "GRAM_CHUNK", chunk):
            got = rdm.gram_block_shape(d, n)
        # oracle: the runs of (N-2)-particle masks that share their top m
        # orbitals, m the fewest for which every run fits the chunk
        masks = fock.occupation_masks(d, n - 2)
        for m in range(d + 1):
            runs = np.unique(masks >> (d - m), return_counts=True)[1]
            if runs.max() <= chunk:
                break
        assert got == shape == (len(runs), runs.max())

    @pytest.mark.parametrize("d,n,cap,top,count", [
        (8, 4, rdm.GRAM_CHUNK, 0, 1),      # C(8, 2) = 28 columns, one block
        (20, 10, 1024, 8, 256),            # runs of at most C(12, 6) = 924
        (20, 10, 4096, 6, 64),             # runs of at most C(14, 7) = 3432
    ])
    def test_block_plan(self, d, n, cap, top, count):
        low, groups, size, _ = rdm._gram_blocks(d, n, cap)
        blocks = [(T, n_low) for n_low, ts, _ in groups for T in ts.tolist()]
        assert low == d - top and len(blocks) == count
        # the blocks come in groups of one |T|, fewest top orbitals occupied
        # first, and tile the (N-2)-particle masks as a set, each the run of
        # one top occupation T ordered as the masks of the low orbitals
        assert [n_low for n_low, _, _ in groups] == sorted({b[1] for b in blocks}, reverse=True)
        masks = fock.occupation_masks(d, n - 2)
        runs = []
        for n_low, ts, tops in groups:
            for T, free in zip(ts.tolist(), tops.tolist()):
                assert free == [o for o in range(low, d) if not T >> o & 1]
        for T, n_low in blocks:
            run = fock.occupation_masks(low, n_low) | T
            assert T >> low << low == T and n_low == n - 2 - T.bit_count()
            start = np.searchsorted(masks, T)
            assert np.array_equal(masks[start:start + len(run)], run)
            runs.append(run)
        assert np.array_equal(np.sort(np.concatenate(runs)), masks)
        assert max(comb(low, n_low) for _, n_low in blocks) <= cap
        # the two planes of the largest block: C(d - |T|, 2) pairs by its columns
        assert size == max(2 * comb(d - (n - 2 - n_low), 2) * comb(low, n_low)
                           for _, n_low in blocks)

    def test_runs_of_psi_are_low_sectors(self):
        d, n, low = 12, 6, 7
        states = fock.occupation_masks(d, n)
        for t in range(1 << (d - low)):
            run = fock.occupation_masks(low, n - t.bit_count()) | t << low
            start = np.searchsorted(states, t << low)
            assert np.array_equal(states[start:start + len(run)], run)

    @pytest.mark.parametrize("k", [2, 1], ids=["pairs", "singles"])
    def test_dropped_low_entry_fails_the_trace_check(self, k, monkeypatch):
        psi = random_state(8, 4, 3)
        tables = rdm._low_hops

        def dropped(*key):
            dst, src, signs = tables(*key)
            if key[2] == k and len(signs):
                signs = signs.copy()
                signs[0] = 0
            return dst, src, signs

        monkeypatch.setattr(rdm, "_low_hops", dropped)
        with mock.patch.object(rdm, "GRAM_CHUNK", 5):  # 5 top orbitals read singles
            with pytest.raises(ArithmeticError, match="trace residual"):
                compute_gamma2(psi)

    # the trace is a sum of squares, blind to a sign: the oracle is not
    def test_flipped_low_sign_misses_the_oracle(self, monkeypatch):
        d, n = 14, 7
        psi = random_state(d, n, 17 * d + n)
        tables = rdm._low_hops

        def flipped(*key):
            dst, src, signs = tables(*key)
            if key[2] == 1 and len(signs):
                signs = signs.copy()
                signs[0] = -signs[0]
            return dst, src, signs

        monkeypatch.setattr(rdm, "_low_hops", flipped)
        assert rdm._gram_blocks(d, n, rdm.GRAM_CHUNK)[0] < d  # blocks read singles
        g = compute_gamma2(psi)
        assert g.trace_residual < 1e-12
        assert np.max(np.abs(g.mat - unchunked_gamma2(psi))) > 1e-13

    # the tables built row by row, one row per call of fock's builder, with
    # their own signs: the positions come from the same builder, so this
    # checks the block layout and the signs (test_fock checks the builder
    # against bit strings)
    @staticmethod
    def per_row_low_hops(L, n, k):
        empty = np.zeros(0, dtype=np.intp)
        dst, src, parity = [empty], [empty], [empty]
        if n >= k:
            masks, width = fock.occupation_masks(L, n), comb(L, n - k)
            for r, bits in enumerate(fock.occupation_masks(L, k).tolist()):
                _, rows, cols, _ = fock._hops(L, n, np.array([bits]))
                below = [np.bitwise_count(masks[cols] & ((1 << o) - 1))
                         for o in range(L) if bits >> o & 1]
                dst.append(r * width + rows)
                src.append(cols)
                parity.append(sum(below, k * (k - 1) // 2))
        return (np.concatenate(dst), np.concatenate(src),
                1.0 - 2.0 * (np.concatenate(parity) & 1))

    @pytest.mark.parametrize("low", range(13))
    def test_low_table_matches_per_row_construction(self, low):
        for n in range(low + 3):
            for k in (1, 2):
                for part, expected in zip(rdm._low_hops(low, n, k),
                                          self.per_row_low_hops(low, n, k)):
                    assert part.dtype == expected.dtype
                    assert np.array_equal(part, expected), (low, n, k)
                    assert not part.flags.writeable

    # every entry of c_i, or c_j c_i, against fock's annihilators
    @pytest.mark.parametrize("low,n,k", [(5, 3, 1), (5, 3, 2), (6, 2, 2), (6, 6, 2)])
    def test_low_table_against_annihilators(self, low, n, k):
        dst, src, signs = rdm._low_hops(low, n, k)
        basis = fock.enumerate_sector(low, n)
        width = comb(low, n - k)
        table = np.zeros((comb(low, k) * width, basis.dim))
        table[dst, src] = signs
        for r, bits in enumerate(fock.occupation_masks(low, k).tolist()):
            for s in range(basis.dim):
                y = fock.SectorVector(basis, np.eye(basis.dim)[s])
                for o in range(low):  # the lowest orbital first
                    if bits >> o & 1:
                        y = apply_annihilate(o, y)
                assert np.array_equal(table[r * width:(r + 1) * width, s], y.amplitudes.real)
        assert all(len(part) == 0 for part in rdm._low_hops(low, k - 1, k))


class TestGamma2Admission:
    @pytest.mark.parametrize("d,n,error,match", [
        (25, 1, SectorSizeError, "configured cap"),        # sector caps first
        (24, 1, SectorMismatchError, "two particles"),     # then N >= 2
    ])
    def test_admission_order(self, d, n, error, match):
        with pytest.raises(error, match=match):
            admit_gamma2(d, n)

    def test_admits_every_capped_sector(self):
        for d in range(2, fock.DEFAULT_MAX_DIM + 1):
            for n in range(2, d + 1):
                if comb(d, n) <= fock.DEFAULT_MAX_SECTOR:
                    admit_gamma2(d, n)
        admit_gamma2(24, 12)

    def test_refused_before_any_gather(self, refuse):
        psi = random_state(8, 1, 0)
        for name in ("_low_hops", "_gram_blocks"):
            refuse(rdm, name, "assembly started")
        with pytest.raises(SectorMismatchError):
            compute_gamma2(psi)


def test_assembly_never_holds_the_pair_vectors():
    d, n = 16, 8
    psi = random_state(d, n, 0)
    for cache in (rdm._low_hops, rdm._gram_blocks, fock.occupation_masks):
        cache.cache_clear()  # the tables and plans are assembly memory too
    with mock.patch.object(rdm, "GRAM_CHUNK", 64):
        tracemalloc.start()
        try:
            g = compute_gamma2(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(np.trace(g.mat).real - n * (n - 1)) < 1e-9
    # psi is 0.2 MB; one partial vector c_i psi would be 0.18 MB and the pair
    # vectors c_j c_i psi 15.4 MB
    assert peak < 2_000_000


def test_assembly_memory_at_the_sector_large_size():
    d, n = 20, 10
    psi = random_state(d, n, 0)
    for cache in (rdm._low_hops, rdm._gram_blocks, fock.occupation_masks):
        cache.cache_clear()
    tracemalloc.start()
    try:
        compute_gamma2(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # psi is 3.0 MB; its tables, one block's planes and the P x P sum stay
    # below this, cold caches included
    assert peak < 9_000_000


@pytest.mark.parametrize("chunk", [rdm.GRAM_CHUNK, 64])
@pytest.mark.parametrize("d,n,n_states", [(12, 6, 4), (8, 4, 18)])
def test_assembly_scratch_does_not_grow_with_the_stack(chunk, d, n, n_states):
    one, stack = random_state(d, n, 0), random_state(d, n, list(range(n_states)))

    def peak(psi):
        tracemalloc.start()
        try:
            compute_gamma2(psi)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with mock.patch.object(rdm, "GRAM_CHUNK", chunk):
        compute_gamma2(stack)  # warm the plan and tables
        excess = peak(stack) - peak(one)
    # each further state adds its P x P sum and the sum's reordered copy,
    # never both with the fix-up's copy of the imaginary part; the block
    # planes and product are one state's
    p = d * (d - 1) // 2
    assert excess <= 2.3 * (n_states - 1) * p * p * 16


def test_spectral_data_builds_matrices_lazily():
    sd = spectral_decompose(compute_gamma2(random_state(6, 3, 1)))
    assert "matrices" not in vars(sd)
    mats = sd.matrices
    assert sd.matrices is mats
    for k, a in enumerate(mats):
        tensor = AntisymmetricTensor(6, a)
        assert np.allclose(tensor.wedge_amplitudes(), sd.wedge_vectors[:, k], atol=1e-15)



def _stack(d, n, seeds):
    return random_state(d, n, list(seeds))


class TestStacks:
    """A stack of states gives each state the same bits as alone."""

    # one block; several blocks that read low pairs, low-top and top pairs
    @pytest.mark.parametrize("d,n,chunk", [(6, 3, rdm.GRAM_CHUNK), (8, 4, rdm.GRAM_CHUNK),
                                           (8, 4, 5), (9, 4, 1), (10, 5, 7),
                                           (12, 10, 3), (14, 7, 64)])
    def test_stacked_assembly_is_the_single_one(self, d, n, chunk):
        seeds = [3, 1, 4, 1, 5]
        stack = _stack(d, n, seeds)
        with mock.patch.object(rdm, "GRAM_CHUNK", chunk):
            g = compute_gamma2(stack)
            singles = [compute_gamma2(random_state(d, n, s)) for s in seeds]
        assert g.mat.shape == (5, d * (d - 1) // 2, d * (d - 1) // 2)
        assert isinstance(g.trace_residual, np.ndarray)
        for k, one in enumerate(singles):
            assert g.mat[k].tobytes() == one.mat.tobytes()
            assert g.trace_residual[k] == one.trace_residual
            assert isinstance(one.trace_residual, float)

    def test_stack_of_one_is_a_batch(self):
        g = compute_gamma2(_stack(6, 3, [2]))
        assert g.mat.shape == (1, 15, 15) and g.trace_residual.shape == (1,)
        assert g.mat[0].tobytes() == compute_gamma2(random_state(6, 3, 2)).mat.tobytes()

    def test_stack_with_one_unnormalized_state_refused(self):
        stack = _stack(6, 3, range(3))
        stack.amplitudes[1] *= 1.5
        with pytest.raises(ValueError, match="normalized"):
            compute_gamma2(stack)

    @pytest.mark.parametrize("d,n", [(6, 3), (8, 4), (9, 4), (12, 6)])
    def test_stacked_spectra_are_the_single_ones(self, d, n):
        seeds = range(20, 24)
        stack = _stack(d, n, seeds)
        sd = spectral_decompose(compute_gamma2(stack))
        partial = partial_trace_residual(sd.one_body, stack)
        for k, seed in enumerate(seeds):
            psi = random_state(d, n, seed)
            one = spectral_decompose(compute_gamma2(psi))
            for name in ("eigenvalues", "wedge_vectors", "matrices", "one_body"):
                assert getattr(sd, name)[k].tobytes() == getattr(one, name).tobytes(), name
            assert sd.eigen_residual[k] == one.eigen_residual
            assert partial[k] == partial_trace_residual(one.one_body, psi)

    @pytest.mark.parametrize("d,n", [(2, 2), (4, 2), (5, 3), (6, 3), (7, 4), (8, 4),
                                     (9, 3), (10, 5), (10, 7)])
    def test_eigen_residual_is_at_roundoff(self, d, n):
        sd = spectral_decompose(compute_gamma2(_stack(d, n, range(6))))
        assert sd.eigen_residual.shape == (6,)
        assert np.all(sd.eigen_residual < 1e-12)
        assert isinstance(spectral_decompose(compute_gamma2(slater_state(d, range(n))))
                          .eigen_residual, float)

    def test_eigen_residual_sees_one_perturbed_column(self):
        sd = spectral_decompose(compute_gamma2(_stack(8, 4, range(3))))
        vectors = sd.wedge_vectors.copy()
        # the top eigenvector moved towards the bottom one, 1.38 below it:
        # G v - Lambda v = 1e-6 (Lambda_bottom - Lambda_top) v_bottom
        vectors[1, :, 0] += 1e-6 * vectors[1, :, -1]
        assert sd.eigenvalues[1, 0] - sd.eigenvalues[1, -1] > 1.0
        moved = rdm.SpectralData(sd.eigenvalues, vectors, sd.operator)
        assert moved.eigen_residual[1] > 1e-7
        assert moved.eigen_residual[[0, 2]].tolist() == sd.eigen_residual[[0, 2]].tolist()
        assert np.all(sd.eigen_residual < 1e-12)
