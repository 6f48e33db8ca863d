"""Pair-block fast paths against full-sector oracles, and their admission.

Every pairing-operator check runs on the pair blocks of ``pairing.pair_blocks``.
Here each is compared with the brute-force computation on the full (2K, N)
sector: the dense gap operator, the dense and Lanczos suprema, and the
quadratic form of the embedded pairing state.
"""

import json
import math
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gamma2lab.bounds as bounds
import gamma2lab.fock as fock
import gamma2lab.pairing as pairing
from gamma2lab.bounds import (block_sups, counterexample_driver,
                              explore_conjecture, proposition_gap,
                              sup_over_states, verify_theorem2)
from gamma2lab.canonical import canonical_from_lambdas, reconstruct
from gamma2lab.cli import main, parse_lambda_spec
from gamma2lab.fock import SectorSizeError, enumerate_sector
from gamma2lab.pairing import (BATCH_ENTRIES, PairOperator, admit_pair_blocks,
                               build_pairing_state, dense_b_matrix,
                               pair_blocks, pair_expectation_and_norm,
                               pair_grams, pair_number_diagonal)
from gamma2lab.rdm import expectation_fast

ORACLE_TOL = 1e-10

# Up to six pairs; zero coefficients make some pairing states vanish, and
# repeated ones make pair blocks that are solved once.
profiles = st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 2.0)),
                    min_size=1, max_size=6).filter(lambda raw: any(raw))


def normalized(raw):
    """Unit-norm profile, sorted descending as canonical forms require."""
    raw = np.sort(np.asarray(raw, dtype=float))[::-1]
    return raw / np.linalg.norm(raw)


def dense_gap(op, N):
    """min eig D and ||D Psi|| / ||Psi|| with D formed densely on (d, N)."""
    sec = enumerate_sector(op.d, N)
    bmat = dense_b_matrix(op, N)
    gap = -(bmat.T @ bmat)
    gap[np.diag_indices_from(gap)] += (0.5 * N - 0.25 * (N - 2)
                                       * pair_number_diagonal(op, sec))
    min_eig = float(np.linalg.eigvalsh(gap).min())
    state = build_pairing_state(op, N // 2)
    if state.norm_sq == 0.0:
        return min_eig, float("nan")
    amps = state.vector.amplitudes
    return min_eig, float(np.linalg.norm(gap @ amps) / np.linalg.norm(amps))


def embedded_expectation(lams, state):
    """<phi, G phi> through the full-sector embedding of the pairing state."""
    return expectation_fast(reconstruct(canonical_from_lambdas(lams)),
                            state.vector.normalized())


class TestOracles:
    @given(profiles)
    @settings(max_examples=25, deadline=None)
    def test_gap_matches_dense(self, raw):
        op = PairOperator(normalized(raw))
        for N in range(2, 2 * op.n_pairs + 1, 2):
            result = proposition_gap(op, N)
            min_eig, residual = dense_gap(op, N)
            assert abs(result.min_eigenvalue - min_eig) <= ORACLE_TOL
            assert result.degenerate == np.isnan(residual)
            if not result.degenerate:
                assert result.kernel_residual < ORACLE_TOL
                assert residual < ORACLE_TOL

    @given(profiles)
    @settings(max_examples=25, deadline=None)
    def test_sup_matches_dense(self, raw):
        lams = normalized(raw)
        for N in range(2, 2 * len(lams) + 1, 2):
            sups = block_sups(lams, N)
            dense = sup_over_states(lams, N, "dense")
            assert abs(max(sups.values()) - dense) <= ORACLE_TOL
            assert sups[0] <= dense + ORACLE_TOL

    @given(profiles)
    @settings(max_examples=25, deadline=None)
    def test_pair_expectation_matches_embedding(self, raw):
        lams = normalized(raw)
        op = PairOperator(lams)
        for N in range(2, 2 * len(lams) + 1, 2):
            state = build_pairing_state(op, N // 2)
            if state.norm_sq == 0.0:
                continue
            oracle = embedded_expectation(lams, state)
            observed = pair_expectation_and_norm(lams, lams, N // 2)[0]
            assert abs(observed - oracle) <= ORACLE_TOL
            report = verify_theorem2(lams, N)
            if report.observed is not None:
                assert abs(report.observed - oracle) <= ORACLE_TOL

    @given(profiles)
    @settings(max_examples=25, deadline=None)
    def test_counterexample_matches_embedding(self, raw):
        lams = normalized(raw)
        K = len(lams)
        for N in range(2, K + 1, 2):
            uniform = np.zeros(K)
            uniform[:N] = 1.0 / np.sqrt(N)
            state = build_pairing_state(PairOperator(uniform), N // 2)
            report = counterexample_driver(lams, N)
            assert abs(report.observed - embedded_expectation(lams, state)) <= ORACLE_TOL

    @given(st.lists(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 2.0)),
                    min_size=1, max_size=8).filter(lambda raw: any(raw)))
    @settings(max_examples=25, deadline=None)
    def test_block_sups_match_every_block(self, raw):
        # the one block per seniority that keeps the largest coefficients
        # against all blocks of pair_blocks, solved on M pairs; the profile
        # keeps its drawn order, so the largest may sit anywhere
        lams = np.asarray(raw) / np.linalg.norm(raw)
        for N in range(1, 2 * len(lams) + 1):
            every: dict[int, float] = {}
            for blocks in pair_blocks(lams, N):
                top = 2.0 * np.linalg.eigvalsh(pair_grams(blocks.coeffs, blocks.pairs)).max()
                every[blocks.seniority] = max(every.get(blocks.seniority, 0.0), top)
            sups = block_sups(lams, N)
            assert sups.keys() == every.keys()
            for s, v in every.items():
                assert abs(sups[s] - v) <= 1e-12 * max(1.0, abs(v))

    def test_explore_matches_lanczos(self):
        lams = normalized(np.linspace(1.1, 0.9, 8))
        for report in explore_conjecture(lams, [2, 4, 6]):
            lanczos = sup_over_states(lams, report.params["N"], "iterative")
            assert abs(report.details["sup_full"] - lanczos) <= 1e-8
            assert report.details["seniority_gap"] >= 0.0


class TestBlockStructure:
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_block_spectra_cover_the_sector(self, K):
        # Each block stands for its 2**s spin copies; together they must
        # reproduce the spectrum of B*B and the pair-number diagonal on
        # the full sector, odd N included.
        op = PairOperator(normalized(np.arange(K, 0, -1) + 0.5))
        for N in range(2, 2 * K + 1):
            sec = enumerate_sector(2 * K, N)
            bmat = dense_b_matrix(op, N)
            eigs, numbers = [], []
            for blocks in pair_blocks(op.lambdas, N):
                copies = 2 ** blocks.seniority
                gram = pair_grams(blocks.coeffs, (N - blocks.seniority) // 2)
                eigs += [np.linalg.eigvalsh(gram).ravel()] * copies
                diag = np.diagonal(gram, axis1=1, axis2=2)
                numbers += [(blocks.broken[:, None] + 2.0 * diag).ravel()] * copies
            assert np.allclose(np.sort(np.concatenate(eigs)),
                               np.linalg.eigvalsh(bmat.T @ bmat), atol=1e-12)
            assert np.allclose(np.sort(np.concatenate(numbers)),
                               np.sort(pair_number_diagonal(op, sec)), atol=1e-12)

    def test_batched_blocks_match_reference(self):
        # Masks of M occupied pairs in ascending order; b_k removes pair k.
        def masks(K, M):
            return sorted(sum(1 << k for k in c) for c in combinations(range(K), M))

        coeffs = np.random.default_rng(4).uniform(0.0, 2.0, size=(5, 6))
        coeffs[1, 2] = 0.0
        batch = pair_grams(coeffs, 3)
        src, tgt = masks(6, 3), masks(6, 2)
        off = ~np.eye(len(src), dtype=bool)
        for row, gram in zip(coeffs, batch):
            ref = np.zeros((len(tgt), len(src)))
            for j, m in enumerate(src):
                for k in range(6):
                    if m >> k & 1:
                        ref[tgt.index(m ^ (1 << k)), j] = row[k]
            ref = ref.T @ ref
            assert np.array_equal(gram[off], ref[off])
            # sums of up to three squares near 10, where one ULP is 1.8e-15
            assert np.allclose(np.diagonal(gram), np.diagonal(ref), rtol=1e-15, atol=0.0)

    @given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_particle_hole_sides_share_the_top(self, raw, data):
        # B*B on M pairs and on K' + 1 - M pairs (B B* on M - 1 pairs, read
        # on the complements) have the same largest eigenvalue
        K = len(raw)
        M = data.draw(st.integers(1, K))
        coeffs = np.array([raw])
        top = [np.linalg.eigvalsh(pair_grams(coeffs, m)).max() for m in (M, K + 1 - M)]
        assert abs(top[0] - top[1]) <= 1e-12

    def test_block_sups_build_one_gram_per_seniority(self, monkeypatch):
        # distinct coefficients: C(12, s) blocks of each seniority, of which
        # only the one that breaks the s smallest is built
        built = []

        def recording(coeffs, M):
            built.append(coeffs.shape[0])
            return pair_grams(coeffs, M)

        monkeypatch.setattr(bounds, "pair_grams", recording)
        lams = np.arange(12, 0, -1) / np.linalg.norm(np.arange(12, 0, -1))
        assert sorted(block_sups(lams, 6)) == [0, 2, 4, 6]
        assert built == [1, 1, 1, 1]

    def test_tied_coefficients_give_one_block_per_seniority(self):
        blocks = list(pair_blocks(np.ones(8), 4))
        assert [(b.seniority, len(b.coeffs)) for b in blocks] == [(0, 1), (2, 1), (4, 1)]
        assert [b.coeffs.tolist() for b in blocks] == [[[1.0] * 8], [[1.0] * 6], [[1.0] * 4]]
        assert [b.broken.tolist() for b in blocks] == [[0.0], [2.0], [4.0]]

    def test_only_bitwise_equal_coefficients_are_merged(self):
        # pairs 0 and 1 are tied, pair 2 is one ULP below them
        lams = np.array([1.0, 1.0, np.nextafter(1.0, 0.0)])
        [blocks] = pair_blocks(lams, 1)
        assert blocks.coeffs.tolist() == [[1.0, lams[2]], [1.0, 1.0]]

    @pytest.mark.parametrize("K, N", [
        pytest.param(K, N, id=f"{K}-{N}")
        for K, N in [(12, 6), (12, 9), (16, 8), (16, 10), (20, 4)]])
    def test_batches_bounded_by_gram_entries(self, K, N):
        # every batch but a single block fits half the entry budget, counted
        # on the Gram its caller builds (M pairs), which leaves the other
        # half for the solver's copy, and every batch but the last of its
        # seniority is full; distinct coefficients, since tied ones leave
        # one block per seniority
        batches = list(pair_blocks(np.arange(K, 0, -1), N))
        for blocks, following in zip(batches, batches[1:] + [None]):
            n, kept = blocks.coeffs.shape
            assert blocks.pairs == (N - blocks.seniority) // 2
            entries = math.comb(kept, blocks.pairs) ** 2
            assert n == 1 or n * entries <= BATCH_ENTRIES // 2
            if following is not None and following.seniority == blocks.seniority:
                assert (n + 1) * entries > BATCH_ENTRIES // 2
            assert blocks.broken.shape == (n,)


class TestAdmission:
    @pytest.fixture
    def no_enumeration(self, refuse):
        refuse(pairing, "occupation_masks", "pair basis enumerated before admission")

    def test_pairing_state_refused_by_arithmetic(self, no_enumeration):
        # C(40, 20) ~ 1.4e11 pair states: refused before any enumeration.
        op = PairOperator(np.full(40, 1 / np.sqrt(40)))
        with pytest.raises(SectorSizeError):
            build_pairing_state(op, 20)
        # C(40, 38) = 780 is small, but the build passes through C(40, 20).
        with pytest.raises(SectorSizeError):
            build_pairing_state(op, 38)

    def test_gap_refused_by_arithmetic(self, no_enumeration):
        op = PairOperator(np.full(40, 1 / np.sqrt(40)))
        with pytest.raises(SectorSizeError):
            proposition_gap(op, 40)
        with pytest.raises(SectorSizeError):
            explore_conjecture(op.lambdas, [40])

    def test_top_side_counts_only_the_grams_built(self, no_enumeration):
        # N = 6 on 36 pairs: explore builds one Gram per seniority, of
        # 630, 34, 1 and 1 states, each on its smaller side
        assert admit_pair_blocks(36, 6, top=True) == {0: 34, 2: 33, 4: 32, 6: 0}

    @pytest.mark.parametrize("K", [63, 20000, 10 ** 6])
    def test_mask_width_before_any_binomial(self, K, tmp_path, monkeypatch):
        # every pair-basis admission refuses more than 62 pairs before it
        # takes a binomial: C(10**6, 5 * 10**5) alone takes seconds
        wide = []

        def narrow_comb(n, k):
            if n > pairing.MAX_PAIRS:
                wide.append((n, k))
                raise AssertionError(f"binomial of {n} pairs taken")
            return math.comb(n, k)

        monkeypatch.setattr(pairing, "comb", narrow_comb)
        width = f"{K} pairs exceed the mask width of {pairing.MAX_PAIRS}"
        lams = np.full(K, 1 / np.sqrt(K))
        op = PairOperator(lams)
        top_n = K - K % 2
        for N in (2, top_n):
            for top in (False, True):
                with pytest.raises(SectorSizeError, match=width):
                    admit_pair_blocks(K, N, top)
            with pytest.raises(SectorSizeError, match=width):
                pair_grams(lams[None], N // 2)
            with pytest.raises(SectorSizeError, match=width):
                build_pairing_state(op, N // 2)
        out = tmp_path / "report.json"
        for argv in (["verify", "prop", "--particles", f"2,{top_n}"],
                     ["explore", "--particles", f"2,{top_n}"],
                     ["verify", "norms"]):
            assert main(argv + ["--lambda", f"uniform:{K}", "--out", str(out)]) == 1
            report = json.loads(out.read_text())
            assert [c["note"] for c in report["checks"]] == [f"SectorSizeError: {width}"]
        assert wide == []

    def test_oversized_block_refused(self, no_enumeration):
        with pytest.raises(SectorSizeError):
            pair_grams(np.ones((1, 16)), 8)
        # C(16, 7) = 11440 Gram rows
        with pytest.raises(SectorSizeError):
            pair_grams(np.ones((1, 16)), 7)

    def test_each_solver_admits_the_gram_it_builds(self, monkeypatch):
        # N = 4 on 6 pairs: the gap builds the seniority-zero Gram on
        # C(6, 2) = 15 states, explore its particle-hole side on C(6, 5) = 6
        monkeypatch.setattr(pairing, "DENSE_CAP", 10)
        lams = parse_lambda_spec("uniform:6").values
        [report] = explore_conjecture(lams, [4])
        assert abs(report.details["sup_full"] - sup_over_states(lams, 4, "dense")) <= ORACLE_TOL
        with pytest.raises(SectorSizeError):
            proposition_gap(PairOperator(lams), 4)

    def test_only_the_gram_is_admitted(self, no_enumeration):
        # N = 22 on 16 pairs: the Gram has C(16, 11) = 4368 rows; B, which
        # is never built, would have C(16, 10) = 8008
        bounds.admit_proposition(PairOperator(np.full(16, 0.25)), 22)

    def test_mask_width(self, no_enumeration):
        with pytest.raises(SectorSizeError):
            build_pairing_state(PairOperator(np.full(70, 1 / np.sqrt(70))), 1)

    def test_beyond_full_sector_cap(self):
        # d = 28 is above the full-sector cap, the pair basis (3432 states)
        # is not; the embedding is only built, and refused, on demand.
        op = PairOperator(np.full(14, 1 / np.sqrt(14)))
        state = build_pairing_state(op, 7)
        assert len(state.pair_amplitudes) == 3432
        with pytest.raises(SectorSizeError):
            state.vector
        observed = pair_expectation_and_norm(op.lambdas, op.lambdas, 7)[0]
        assert abs(observed - 8.0) < 1e-12  # N/2 + 1

    @pytest.fixture
    def no_pairing_state(self, refuse):
        for module, name in ((pairing, "build_pairing_state"), (pairing, "pairing_states"),
                             (bounds, "pairing_states")):
            refuse(module, name, "pairing state built")

    def test_trial_state_checks_build_nothing(self, no_enumeration, no_pairing_state,
                                              refuse):
        # thm2 and counterexample read their number off the pairing-state
        # identity, so pair bases of C(26, 13) ~ 1.0e7 and C(30, 15) ~ 1.6e8
        # states, far above the cap, are never needed
        refuse(fock, "occupation_masks", "pairing state built")
        assert verify_theorem2(np.full(26, 1 / np.sqrt(26)), 26).passed
        assert counterexample_driver(parse_lambda_spec("power:1:30").values, 30).passed

    def test_gap_builds_no_pairing_state(self, no_pairing_state):
        # the kernel vector is read off the closed form on the block's own
        # basis, C(30, 28) = 435 states; the B* chain would pass through
        # C(30, 15) ~ 1.6e8
        result = proposition_gap(PairOperator(np.full(30, 1 / np.sqrt(30))), 56)
        assert not result.degenerate
        assert result.min_eigenvalue >= -1e-10
        assert result.kernel_residual < 1e-10


def test_cli_import_defers_sparse_linalg():
    # no scipy module at all: every command pays for the import, and only
    # the iterative path of bounds.sup_over_states needs scipy
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gamma2lab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code, str(src)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
