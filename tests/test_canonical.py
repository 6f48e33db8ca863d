"""Canonical pair decomposition: round trips, covariance, measures, IO."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gamma2lab.canonical as canonical
from gamma2lab.canonical import (CLUSTER_RTOL, AntisymmetricTensor,
                                 CanonicalForm, NotAntisymmetricError,
                                 NotNormalizedError, _decompose_clusters,
                                 canonical_from_lambdas, check_unit_norms,
                                 correlation_measures,
                                 elementary_wedge, embed_as_sector_vector,
                                 plane_minima, random_tensor, read_tensor_text,
                                 reconstruct, tensor_inner, wedge_index,
                                 wedge_matrices, write_tensor_text,
                                 youla_decompose)
from gamma2lab.fock import SectorMismatchError, SectorSizeError


def seeded_tensor(d, seed):
    return random_tensor(d, np.random.default_rng(seed))


def two_pair_tensor():
    """(e1^e2 + e3^e4) / sqrt(2) in d = 4."""
    upper = np.zeros((4, 4), dtype=complex)
    upper[0, 1] = upper[2, 3] = 0.5
    return AntisymmetricTensor(4, upper - upper.T)


class TestTensorStorage:
    def test_exact_antisymmetry_enforced(self):
        t = AntisymmetricTensor(2, np.array([[0, 1], [-1, 0]]) / np.sqrt(2))
        assert np.array_equal(t.mat, -t.mat.T)

    def test_rejects_nonantisymmetric(self):
        with pytest.raises(NotAntisymmetricError):
            AntisymmetricTensor(3, np.eye(3))

    def test_wedge_amplitude_roundtrip(self):
        t = seeded_tensor(6, 0)
        back = wedge_matrices(6, t.wedge_amplitudes())
        assert np.max(np.abs(back - t.mat)) < 1e-15

    def test_wedge_matrices_stack(self):
        tensors = [seeded_tensor(6, seed) for seed in range(3)]
        amps = np.stack([t.wedge_amplitudes() for t in tensors], axis=1)
        stack = wedge_matrices(6, amps)
        assert stack.shape == (3, 6, 6)
        for a, t in zip(stack, tensors):
            assert np.array_equal(a, -a.T)
            assert np.max(np.abs(a - t.mat)) < 1e-15
        with pytest.raises(SectorMismatchError):
            wedge_matrices(5, amps)

    def test_wedge_pair_order(self):
        iu, ju = wedge_index(4)
        assert list(zip(iu.tolist(), ju.tolist())) == [(0, 1), (0, 2), (0, 3),
                                                       (1, 2), (1, 3), (2, 3)]


class TestYoulaDecompose:
    def test_single_elementary_wedge(self):
        form = youla_decompose(elementary_wedge(2, 0, 1))
        assert np.allclose(form.lambdas, [1.0], atol=1e-12)
        # pair spans the plane of e1, e2 up to phases
        assert abs(abs(form.u(0)[0]) ** 2 + abs(form.u(0)[1]) ** 2 - 1) < 1e-12
        assert abs(tensor_inner(elementary_wedge(2, 0, 1),
                                reconstruct(form))) > 1 - 1e-12

    def test_block_two_pair_tensor(self):
        form = youla_decompose(two_pair_tensor())
        assert np.allclose(form.lambdas, [1 / np.sqrt(2)] * 2, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_roundtrip_random(self, seed):
        t = seeded_tensor(8, seed)
        form = youla_decompose(t)
        assert np.linalg.norm(reconstruct(form).mat - t.mat) < 1e-8

    @given(st.integers(0, 2 ** 31), st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, seed, d):
        t = seeded_tensor(d, seed)
        form = youla_decompose(t)
        assert np.linalg.norm(reconstruct(form).mat - t.mat) < 1e-8
        assert abs(np.sum(form.lambdas ** 2) - 1.0) < 1e-10

    def test_unitary_congruence_covariance(self):
        t = seeded_tensor(8, 42)
        rng = np.random.default_rng(43)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8))
                            + 1j * rng.standard_normal((8, 8)))
        mat = q @ t.mat @ q.T
        assert np.max(np.abs(mat + mat.T)) <= 1e-12
        upper = np.triu(mat, 1)
        rotated = AntisymmetricTensor(8, upper - upper.T)
        a = np.sort(youla_decompose(t).lambdas)
        b = np.sort(youla_decompose(rotated).lambdas)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_degenerate_uniform_cluster(self):
        form = canonical_from_lambdas(np.full(4, 0.5))
        t = reconstruct(form)
        redone = youla_decompose(t)
        assert np.allclose(redone.lambdas, 0.5, atol=1e-10)
        assert np.linalg.norm(reconstruct(redone).mat - t.mat) < 1e-8

    def test_phase_normalization(self):
        form = youla_decompose(seeded_tensor(6, 9))
        assert form.lambdas.dtype == np.float64
        assert np.all(form.lambdas >= 0)
        assert np.all(np.diff(form.lambdas) <= 1e-12)

    def test_pair_overlap_recovers_coefficients(self):
        t = seeded_tensor(8, 17)
        form = youla_decompose(t)
        for k in range(form.n_pairs):
            pair = np.sqrt(0.5) * (np.outer(form.u(k), form.v(k))
                                   - np.outer(form.v(k), form.u(k)))
            overlap = np.vdot(pair, t.mat)
            assert abs(overlap - form.lambdas[k]) < 1e-10

    def test_rejects_unnormalized(self):
        t = seeded_tensor(4, 1)
        with pytest.raises(NotNormalizedError):
            youla_decompose(AntisymmetricTensor(4, 2.0 * t.mat))

    def test_orthonormal_columns(self):
        form = youla_decompose(seeded_tensor(8, 23))
        gram = form.vectors.conj().T @ form.vectors
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-10

    def test_merged_cluster_of_tiny_coefficients(self):
        # 4.4e-9 and 3.0e-9 lie within CLUSTER_RTOL of each other, so their
        # singular pairs merge; the partners found in that cluster are
        # accurate only to ~1e-7 and must be re-orthonormalised.
        lams = np.array([1.0, 6.7e-4, 4.4e-9, 3.0e-9])
        lams /= np.linalg.norm(lams)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((8, 8))
                                + 1j * rng.standard_normal((8, 8)))
            t = reconstruct(CanonicalForm(lams, q))
            form = youla_decompose(t)
            gram = form.vectors.conj().T @ form.vectors
            assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-12
            assert np.allclose(form.lambdas, lams, rtol=0, atol=1e-14)
            assert np.linalg.norm(reconstruct(form).mat - t.mat) < 1e-13


def rotated(lams, d, rng):
    """Unit tensor sum lam_k u_k ^ v_k on random orthonormal columns of C^d."""
    lams = np.sort(np.asarray(lams, dtype=float))[::-1]
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return reconstruct(CanonicalForm(lams / np.linalg.norm(lams), q[:, :2 * len(lams)])).mat


def stack_member(kind, d, rng):
    """One coefficient matrix of the given kind; kinds that do not fit d fall
    back to a generic random tensor."""
    k = d // 2
    if kind == "wedge":            # Slater, K = 1
        return rotated([1.0], d, rng)
    if kind == "uniform" and k >= 2:   # one cluster of 2K singular values
        return rotated(np.ones(k), d, rng)
    if kind == "deficient" and k >= 2:  # fewer pairs, so a smaller kept count
        return rotated(rng.uniform(0.2, 1.0, k - 1), d, rng)
    if kind in ("tie-merged", "tie-split") and k >= 2:
        # top two pairs just inside / just outside the cluster gap
        f = 0.9 if kind == "tie-merged" else 1.1
        return rotated([1.0, 1.0 - f * CLUSTER_RTOL, *rng.uniform(0.1, 0.5, k - 2)], d, rng)
    if kind == "spread":           # pairs far apart: sigma_max / sigma_min = 1e4
        return rotated(np.logspace(0, -4, k), d, rng)
    if kind == "tiny" and d >= 8:  # as test_merged_cluster_of_tiny_coefficients
        return rotated([1.0, 6.7e-4, 4.4e-9, 3.0e-9], d, rng)
    return random_tensor(d, rng).mat


MEMBER_KINDS = ["random", "wedge", "uniform", "deficient", "tie-merged",
                "tie-split", "spread", "tiny"]


def assert_round_trip(a):
    """youla_decompose of one stack member rebuilds it from orthonormal pairs."""
    form = youla_decompose(AntisymmetricTensor(len(a), a))
    assert np.linalg.norm(reconstruct(form).mat - a) < 1e-12
    gram = form.vectors.conj().T @ form.vectors
    assert np.max(np.abs(gram - np.eye(len(gram)))) <= canonical.REPAIR_TOL
    # u_k is orthogonalised against its own v_k to roundoff
    pair_overlap = np.sum(form.vectors[:, 1::2].conj() * form.vectors[:, 0::2], axis=0)
    assert np.max(np.abs(pair_overlap), initial=0.0) < 1e-14


class TestMemberKinds:
    """Every kind of coefficient matrix through the cluster loop."""

    @pytest.mark.parametrize("d", [8, 9])
    def test_every_member_kind(self, d):
        rng = np.random.default_rng(d)
        for kind in MEMBER_KINDS:
            assert_round_trip(stack_member(kind, d, rng))

    @given(st.integers(2, 10), st.integers(0, 2 ** 31),
           st.lists(st.sampled_from(MEMBER_KINDS), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    # the last member's two smallest coefficients are tied to 1.7e-4, so its
    # singular vectors mix at ~eps / gap: orthonormal to 2.5e-12 unrepaired
    @example(d=10, seed=10, kinds=["random", "deficient", "deficient", "deficient"])
    def test_mixed_kinds(self, d, seed, kinds):
        rng = np.random.default_rng(seed)
        for kind in kinds:
            assert_round_trip(stack_member(kind, d, rng))


def random_gamma1(d, rng):
    """A random positive semidefinite Hermitian d x d matrix."""
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return x @ x.conj().T / d


# clusters of pairs each kind forms at d = 8 and 9 (four pairs)
CLUSTERS = {"random": [[0], [1], [2], [3]], "uniform": [[0, 1, 2, 3]],
            "tie-merged": [[0, 1], [2], [3]], "tie-split": [[0], [1], [2], [3]],
            "tiny": [[0], [1], [2, 3]]}
# Clusters whose singular values lie within ~1e-8 sigma_max of other ones
# (tie-split's first two pairs; tiny's last cluster and the zero singular
# value of odd d) have spaces fixed only to about eps / gap ~ 1e-8, on
# either path, so their minima agree only to that.
NEAR_TIES = {("tie-split", 0), ("tie-split", 1), ("tiny", 2)}


class TestPlaneMinima:
    """Minimum of x^T gamma1 conj(x) over each pair plane, or over a tie's
    joint space, against the planes of the cluster loop."""

    @pytest.mark.parametrize("d", [8, 9])
    @pytest.mark.parametrize("seed", range(3))
    def test_ties_and_odd_d(self, d, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([stack_member(kind, d, rng) for kind in CLUSTERS])
        gamma1 = random_gamma1(d, rng)
        lams, minima = plane_minima(stack, gamma1)
        assert lams.shape == minima.shape == (len(CLUSTERS), d // 2)
        for m, (a, (kind, clusters)) in enumerate(zip(stack, CLUSTERS.items())):
            pair_lams, vecs = _decompose_clusters(a)
            firsts = [c[0] for c in clusters]
            for pairs in clusters:
                w = vecs[:, 2 * pairs[0]:2 * pairs[-1] + 2]
                want = np.linalg.eigvalsh(w.T @ gamma1 @ w.conj())[0]
                tol = 1e-6 if (kind, pairs[0]) in NEAR_TIES else 1e-12
                assert abs(minima[m, pairs[0]] - want) < tol
                assert abs(lams[m, pairs[0]] - pair_lams[pairs[-1]]) < 1e-14
            rest = np.setdiff1d(np.arange(d // 2), firsts)
            assert np.all(minima[m, rest] == np.inf) and not np.any(lams[m, rest])

    def test_rejects_one_unnormalized_member(self):
        stack = np.stack([seeded_tensor(6, seed).mat for seed in range(3)])
        stack[1] *= 1.001
        with pytest.raises(NotNormalizedError):
            plane_minima(stack, np.eye(6))


class TestCheckUnitNorms:
    def test_rejects_nan(self):
        stack = np.stack([seeded_tensor(4, seed).mat for seed in range(3)])
        stack[2] = np.nan
        with pytest.raises(NotNormalizedError, match="nan"):
            check_unit_norms(stack)

    @pytest.mark.parametrize("value", [np.inf + 0j, complex(-np.inf, np.inf)])
    def test_rejects_infinite_entries(self, value):
        # the suite turns RuntimeWarning into an error, so a norm that warns
        # on inf would fail here before the check could refuse the stack
        with pytest.raises(NotNormalizedError, match="inf"):
            check_unit_norms(np.full((1, 4, 4), value))


class TestReconstruct:
    def test_single_pair_matrix(self):
        form = canonical_from_lambdas([1.0])
        expected = np.array([[0, 1], [-1, 0]]) / np.sqrt(2)
        assert np.allclose(reconstruct(form).mat, expected, atol=1e-15)

    def test_uniform_entry_value(self):
        form = canonical_from_lambdas(np.full(4, 0.5))
        t = reconstruct(form)
        assert abs(t.mat[0, 1] - 0.5 / np.sqrt(2)) < 1e-15
        assert abs(t.norm() - 1.0) < 1e-14


class TestCorrelationMeasures:
    def test_single_pair(self):
        assert correlation_measures(canonical_from_lambdas([1.0])) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_uniform(self, k):
        m = correlation_measures(canonical_from_lambdas(np.full(k, 1 / np.sqrt(k))))
        assert abs(m.sum_lambda4 - 1 / k) < 1e-14
        assert abs(m.lambda_max - 1 / np.sqrt(k)) < 1e-14
        assert abs(m.participation - k) < 1e-10

    def test_geometric_profile_exact_arithmetic(self):
        # rational oracle: lam_k^2 = (1/4)^(k-1) / S with S = 85/64
        squares = [Fraction(1, 4) ** k for k in range(4)]
        total = sum(squares)
        exact = sum((q / total) ** 2 for q in squares)
        lams = np.sqrt(np.array([float(q / total) for q in squares]))
        m = correlation_measures(canonical_from_lambdas(lams))
        assert abs(m.sum_lambda4 - float(exact)) < 1e-14


class TestEmbedding:
    def test_single_wedge(self):
        vec = embed_as_sector_vector(elementary_wedge(2, 0, 1))
        assert np.allclose(vec.amplitudes, [1.0])

    def test_two_pair_amplitudes(self):
        vec = embed_as_sector_vector(two_pair_tensor())
        sec = vec.basis
        a = vec.amplitudes[sec.index_of([0b0011])[0]]
        b = vec.amplitudes[sec.index_of([0b1100])[0]]
        assert abs(a - 1 / np.sqrt(2)) < 1e-15
        assert abs(b - 1 / np.sqrt(2)) < 1e-15

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, seed):
        t = seeded_tensor(8, seed)
        assert abs(embed_as_sector_vector(t).norm() - 1.0) < 1e-12


class TestTextFormat:
    def test_header_over_the_sector_cap_refused(self, tmp_path, refuse):
        path = tmp_path / "tensor.txt"
        path.write_text("2450\n")  # C(2450, 2) = 3,000,025 wedge entries
        refuse(np, "zeros", "a tensor was allocated")
        with pytest.raises(SectorSizeError, match="3000025 wedge entries"):
            read_tensor_text(path)

    def test_header_at_the_sector_cap_allocates(self, tmp_path, monkeypatch):
        class Allocated(Exception):
            pass

        def sentinel(shape, dtype=None):
            raise Allocated(shape)

        path = tmp_path / "tensor.txt"
        path.write_text("2449\n")  # C(2449, 2) = 2,997,576 wedge entries
        monkeypatch.setattr(np, "zeros", sentinel)
        with pytest.raises(Allocated):
            read_tensor_text(path)

    def test_roundtrip(self, tmp_path):
        t = seeded_tensor(6, 77)
        path = tmp_path / "tensor.txt"
        write_tensor_text(path, t)
        back = read_tensor_text(path)
        assert back.d == 6
        assert np.max(np.abs(back.mat - t.mat)) < 1e-15

    def test_rejects_lower_triangle_entries(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n2 1 0.5 0.0\n")
        with pytest.raises(ValueError):
            read_tensor_text(path)

    @pytest.mark.parametrize("text, message", [
        ("x\n", "line 1 is not a dimension d >= 0: 'x'"),
        ("# d\n-5\n", "line 2 is not a dimension d >= 0: '-5'"),
        ("4\n0 x 1 0\n", "malformed tensor line 2: '0 x 1 0'"),
        ("4\n0 1 0.5 0\n\n0 2 a 0\n", "malformed tensor line 4: '0 2 a 0'"),
        ("4\n2 1 1 0\n",
         "line 2 has entry (2, 1), not strictly upper for d=4: '2 1 1 0'"),
    ], ids=["header", "negative-header", "index", "value", "lower-entry"])
    def test_refusals_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as refused:
            read_tensor_text(path)
        assert str(refused.value) == message

    @pytest.mark.parametrize("value", ["nan 0.0", "0.5 inf", "-inf -inf"])
    def test_rejects_non_finite_values(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(f"4\n0 1 0.5 0.0\n2 3 {value}\n")
        with pytest.raises(ValueError, match="line 3 has a non-finite value"):
            read_tensor_text(path)

    def test_rejects_repeated_entries(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n# comment\n0 1 0.5 0.0\n2 3 0.5 0.0\n0 1 0.1 0.0\n")
        with pytest.raises(ValueError, match=r"line 5 repeats entry \(0, 1\)"):
            read_tensor_text(path)

    def test_header_only_is_zero_tensor(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("3\n")
        t = read_tensor_text(path)
        assert t.norm() == 0.0


class TestCanonicalFormValidation:
    def test_rejects_nonorthonormal(self):
        vecs = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            CanonicalForm(np.array([1.0]), vecs)

    def test_rejects_ascending_lambdas(self):
        form = canonical_from_lambdas([0.8, 0.6])
        with pytest.raises(ValueError):
            CanonicalForm(form.lambdas[::-1].copy(), form.vectors)

    @pytest.mark.parametrize("lams, vecs", [
        ([1.0], np.full((2, 2), np.nan)),
        ([np.nan], np.eye(2)),
        ([np.inf], np.eye(2)),
        ([1.0], np.array([[1.0, 0.0], [0.0, 1j * np.inf]])),
    ])
    def test_rejects_non_finite(self, lams, vecs):
        with pytest.raises(ValueError, match="non-finite"):
            CanonicalForm(lams, vecs)
