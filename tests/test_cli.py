"""Profile parsing, seeded state generation, and the report-writing CLI."""

import csv
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gamma2lab import bounds, cli, pairing, rdm
from gamma2lab.canonical import random_tensor, write_tensor_text
from gamma2lab.fock import SectorSizeError
from gamma2lab.cli import (build_report, main, parse_lambda_spec, random_state,
                           report_to_csv, report_to_json)

from corpus import COMMANDS, RUN, fresh, write_inputs


class TestLambdaSpec:
    def test_uniform(self):
        spec = parse_lambda_spec("uniform:4")
        assert spec.kind == "uniform"
        assert np.allclose(spec.values, 0.5)

    def test_geometric_descending_normalized(self):
        spec = parse_lambda_spec("geometric:0.5:5")
        assert np.all(np.diff(spec.values) <= 0)
        assert abs(np.sum(spec.values ** 2) - 1.0) < 1e-14
        assert abs(spec.values[0] / spec.values[1] - 2.0) < 1e-12

    def test_power(self):
        spec = parse_lambda_spec("power:1:3")
        raw = np.array([1.0, 0.5, 1 / 3])
        assert np.allclose(spec.values, raw / np.linalg.norm(raw))

    def test_growing_geometric_is_sorted(self):
        spec = parse_lambda_spec("geometric:2.0:4")
        assert np.all(np.diff(spec.values) <= 0)

    def test_file(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("# comment\n3.0\n1.0\n2.0\n")
        spec = parse_lambda_spec(f"file:{path}")
        assert spec.kind == "explicit-file"
        assert np.allclose(spec.values, np.array([3.0, 2.0, 1.0]) / np.sqrt(14.0))

    @pytest.mark.parametrize("bad", ["uniform:0", "geometric:-1:4", "nope:3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_lambda_spec(bad)

    def test_rejects_negative_file_values(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("1.0\n-1.0\n")
        with pytest.raises(ValueError):
            parse_lambda_spec(f"file:{path}")

    # the 2-norm of these profiles under- or overflows; the largest entry
    # rescales them first
    @pytest.mark.parametrize("text,expected", [
        ("geometric:1e-170:8", [1.0] + [0.0] * 7),
        ("file:1e-200\n1e-200\n", "uniform:2"),
        ("file:1e308\n1e308\n", "uniform:2"),
    ])
    def test_profile_with_unrepresentable_norm_is_rescaled(self, tmp_path, text, expected):
        if text.startswith("file:"):
            path = tmp_path / "profile.txt"
            path.write_text(text.removeprefix("file:"))
            text = f"file:{path}"
        if isinstance(expected, str):
            expected = parse_lambda_spec(expected).values
        assert np.array_equal(parse_lambda_spec(text).values, expected)

    @pytest.mark.parametrize("entries", [("1", "0.5"), ("1e308", "1e308")])
    def test_negative_zero_entry_reads_as_zero(self, tmp_path, entries):
        values = []
        for zero in ("-0", "0"):
            path = tmp_path / f"profile{zero}.txt"
            path.write_text("\n".join([entries[0], zero, entries[1], "0"]) + "\n")
            values.append(parse_lambda_spec(f"file:{path}").values)
        # by bytes: np.array_equal treats -0.0 as equal to 0.0
        assert values[0].tobytes() == values[1].tobytes()

    def test_rejects_all_zero_file(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("0\n0\n")
        with pytest.raises(ValueError, match="identically zero"):
            parse_lambda_spec(f"file:{path}")

    @pytest.mark.parametrize("text", ["power:nan:4", "geometric:inf:4",
                                      "file:1\nnan\n", "file:inf\n1\n"])
    def test_rejects_non_finite(self, tmp_path, text):
        if text.startswith("file:"):
            path = tmp_path / "profile.txt"
            path.write_text(text.removeprefix("file:"))
            text = f"file:{path}"
        with pytest.raises(ValueError, match="finite"):
            parse_lambda_spec(text)

    @pytest.mark.parametrize("text", ["uniform:{k}", "geometric:0.5:{k}", "power:1:{k}"])
    def test_profile_length_refused_before_allocation(self, refuse, text):
        for name in ("ones", "arange"):
            refuse(np, name, "profile allocated before admission")
        for k in (cli.MAX_PROFILE_PAIRS + 1, 99999999999):
            with pytest.raises(SectorSizeError, match="cap is"):
                parse_lambda_spec(text.format(k=k))

    def test_profile_length_cap_is_inclusive(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PROFILE_PAIRS", 3)
        assert len(parse_lambda_spec("power:1:3").values) == 3
        path = tmp_path / "profile.txt"
        path.write_text("1\n1\n1\n1\n")
        with pytest.raises(SectorSizeError, match="file profile of 4 pairs"):
            parse_lambda_spec(f"file:{path}")


class TestRandomState:
    def test_deterministic(self):
        a = random_state(4, 2, 0)
        b = random_state(4, 2, 0)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_normalized(self):
        assert abs(random_state(8, 4, 3).norm() - 1.0) < 1e-14

    def test_distinct_seeds(self):
        a = random_state(6, 3, 1)
        b = random_state(6, 3, 2)
        assert abs(a.inner(b)) < 1.0 - 1e-6

    @pytest.mark.parametrize("d,n,seed", [(2, 1, 0), (4, 2, 0), (8, 4, 3), (9, 2, 11),
                                          (12, 6, 2 ** 31 - 1), (16, 8, 5)])
    def test_matches_sum_of_parts(self, d, n, seed):
        # the in-place fill gives bit for bit the values of the full-size expression
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        dim = math.comb(d, n)
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        got = random_state(d, n, seed).amplitudes
        assert got.tobytes() == (z / np.linalg.norm(z)).tobytes()

    @pytest.mark.parametrize("d,n", [(4, 2), (8, 4), (12, 6)])
    def test_stack_rows_are_the_single_draws(self, d, n):
        seeds = [5, 0, 2 ** 64 - 1, 5]
        stack = random_state(d, n, seeds).amplitudes
        assert stack.shape == (4, math.comb(d, n))
        for row, seed in zip(stack, seeds):
            assert row.tobytes() == random_state(d, n, seed).amplitudes.tobytes()
        assert random_state(d, n, [7]).amplitudes.shape == (1, math.comb(d, n))


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def usage_error(tmp_path, capsys, *argv):
    """The stderr of ``argv``, which must be a usage error: exit 2 and no
    report written."""
    out = tmp_path / "report.json"
    assert main(list(argv) + ["--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


class TestSubcommands:
    def test_verify_thm1(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "thm1", "--dim", "6",
                               "--particles", "3", "--trials", "3", "--seed", "7")
        assert code == 0
        assert report["schema_version"] == 1
        assert report["meta"]["rng"] == "philox4x64"
        assert report["timing"] is None
        assert all(c["pass"] is not False for c in report["checks"])
        # one informational spectrum row per trial, eigenvalues always listed
        spectra = [c for c in report["checks"] if c["kind"] == "spectrum"]
        assert len(spectra) == 3
        assert len(spectra[0]["details"]["eigenvalues"]) == 15
        assert all(c["pass"] for c in report["checks"] if c["kind"] == "thm1")
        assert {"kind", "params", "observed", "bound", "margin", "pass",
                "details", "note"} <= set(report["checks"][0])

    def test_verify_thm2(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "thm2",
                               "--lambda", "uniform:4", "--particles", "4")
        assert code == 0
        check = report["checks"][0]
        assert abs(check["observed"] - 3.0) < 1e-9

    def test_verify_prop(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "prop",
                               "--lambda", "uniform:4", "--particles", "2,4")
        assert code == 0
        assert len(report["checks"]) == 2

    def test_verify_norms(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "norms",
                               "--lambda", "geometric:0.5:4")
        assert code == 0
        assert [c["params"]["M"] for c in report["checks"]] == [1, 2, 3, 4]

    def test_verify_occupation(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "occupation", "--dim", "6",
                               "--particles", "3", "--trials", "2")
        assert code == 0 and report["checks"]

    def test_spectrum_rows_record_partial_trace_residual(self, tmp_path):
        for check in ("thm1", "occupation"):
            code, report = run_cli(tmp_path, "verify", check, "--dim", "8",
                                   "--particles", "4", "--trials", "3")
            spectra = [c for c in report["checks"] if c["kind"] == "spectrum"]
            assert code == 0 and len(spectra) == 3
            assert all(0 <= c["details"]["partial_trace_residual"] < 1e-12
                       for c in spectra)

    @pytest.mark.parametrize("d,n", [(4, 2), (6, 3), (7, 2), (8, 4), (9, 5),
                                     (10, 5), (10, 8)])
    def test_spectrum_rows_record_eigen_residual(self, tmp_path, d, n):
        code, report = run_cli(tmp_path, "verify", "thm1", "--dim", str(d),
                               "--particles", str(n), "--trials", "25")
        spectra = [c for c in report["checks"] if c["kind"] == "spectrum"]
        assert code == 0 and len(spectra) == 25
        assert all(0 < c["details"]["eigen_residual"] < 1e-12 for c in spectra)

    def test_gamma2_over_budget_writes_error_report(self, tmp_path):
        # every sector of d <= 24 is admitted; d = 25 is above the dimension cap
        code, report = run_cli(tmp_path, "verify", "thm1", "--dim", "25",
                               "--particles", "12", "--trials", "1")
        assert code == 1
        assert report["checks"][0]["kind"] == "error"
        assert report["checks"][0]["note"].startswith("SectorSizeError")

    @pytest.mark.parametrize("check", ["thm1", "occupation"])
    def test_gamma2_refused_before_any_state(self, tmp_path, refuse, check):
        refuse(cli, "random_state", "a state was drawn")
        code, report = run_cli(tmp_path, "verify", check, "--dim", "25",
                               "--particles", "12", "--trials", "1")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: d=25 outside the configured cap 24"]

    def test_canonical_subcommand(self, tmp_path):
        write_inputs(tmp_path)
        code, report = run_cli(tmp_path, "canonical", "--tensor",
                               str(tmp_path / "tensor.txt"))
        assert code == 0
        check = report["checks"][0]
        assert check["pass"]
        assert abs(sum(x ** 2 for x in check["details"]["lambdas"]) - 1.0) < 1e-8

    def test_canonical_tol_bounds_the_round_trip(self, tmp_path):
        write_inputs(tmp_path)
        code, report = run_cli(tmp_path, "canonical", "--tensor",
                               str(tmp_path / "tensor.txt"), "--tol", "1e-20")
        check = report["checks"][0]
        assert check["observed"] > 1e-20
        assert code == 1 and not check["pass"]
        assert check["bound"] == 1e-20

    def test_canonical_requires_normalized_input(self, tmp_path):
        tensor_path = tmp_path / "tensor.txt"
        t = random_tensor(4, np.random.default_rng(1))
        from gamma2lab.canonical import AntisymmetricTensor
        write_tensor_text(tensor_path, AntisymmetricTensor(4, 3.0 * t.mat))
        code, report = run_cli(tmp_path, "canonical", "--tensor", str(tensor_path))
        assert code == 1
        assert report["checks"][0]["kind"] == "error"
        code, report = run_cli(tmp_path, "canonical", "--tensor",
                               str(tensor_path), "--normalize")
        assert code == 0

    # the norm of the first tensor overflows, that of the second underflows
    @pytest.mark.parametrize("scaled,plain", [(("1e200", "1e200"), ("1", "1")),
                                              (("1e-320", "2e-320"), ("1", "2"))])
    def test_canonical_normalize_rescales_unrepresentable_norm(self, tmp_path,
                                                                scaled, plain):
        lambdas = []
        for entries in (scaled, plain):
            tensor_path = tmp_path / "tensor.txt"
            tensor_path.write_text(f"4\n0 1 {entries[0]} 0\n2 3 {entries[1]} 0\n")
            code, report = run_cli(tmp_path, "canonical", "--tensor",
                                   str(tensor_path), "--normalize")
            assert code == 0
            lambdas.append(report["checks"][0]["details"]["lambdas"])
        assert lambdas[0] == lambdas[1]

    def test_explore_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["explore", "--lambda", "uniform:6", "--particles", "2,4",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].startswith("kind,")
        assert "detail:c_emp" in rows[0]
        assert len(rows) == 3

    def test_counterexample_k_equals_n(self, tmp_path):
        code, report = run_cli(tmp_path, "counterexample", "--lambda", "power:1:8",
                               "--particles", "4,6", "--k-equals-n")
        assert code == 0
        kinds = [c["kind"] for c in report["checks"]]
        assert kinds.count("counterexample") == 3  # 2 runs + growth row
        assert report["checks"][0]["params"]["K"] == 4

    # each N's row is the run of the profile's text with N for its K; the
    # power exponent prints shorter than it is typed
    @pytest.mark.parametrize("text", ["uniform:3", "geometric:0.9:4",
                                      "power:0.37512345678901234:12"])
    def test_k_equals_n_rows_are_the_runs_at_k_n(self, tmp_path, text):
        stem = text.rpartition(":")[0]
        code, report = run_cli(tmp_path, "counterexample", "--lambda", text,
                               "--particles", "2,4,6", "--k-equals-n")
        assert code == 0
        for n, row in zip([2, 4, 6], report["checks"]):
            _, alone = run_cli(tmp_path, "counterexample", "--lambda", f"{stem}:{n}",
                               "--particles", str(n))
            assert alone["checks"] == [row]
        assert report["checks"][3]["params"] == {"aspect": "growth", "N_list": [2, 4, 6]}

    def test_k_equals_n_refuses_a_file_profile(self, tmp_path):
        profile = tmp_path / "profile.txt"
        profile.write_text("3.0\n2.0\n1.0\n")
        code, report = run_cli(tmp_path, "counterexample", "--lambda", f"file:{profile}",
                               "--particles", "2", "--k-equals-n")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "ValueError: --k-equals-n needs a parametric profile"]

    def test_counterexample_beyond_full_sector_cap(self, tmp_path):
        # K = N = 14 means d = 28, above the full-sector cap; the pair basis
        # of the check holds C(14, 7) = 3432 states.
        code, report = run_cli(tmp_path, "counterexample", "--lambda",
                               "power:1:14", "--particles", "14", "--k-equals-n")
        assert code == 0
        assert [c["pass"] for c in report["checks"]] == [True]

    @pytest.mark.parametrize("argv", [
        ["explore", "--lambda", "uniform:16", "--particles", "2,4,6,8,10,12,14"],
        ["verify", "prop", "--lambda", "uniform:16", "--particles", "8,12"],
    ])
    def test_oversized_n_refused_before_any_solve(self, tmp_path, refuse, argv):
        # prop at N = 12 on 16 pairs needs a dense Gram of C(16, 6) = 8008
        # states; explore builds the smaller particle-hole side, and at
        # N = 14 that is C(16, 10) = 8008 states
        refuse(bounds, "pair_blocks", "a pair block was built")
        code, report = run_cli(tmp_path, *argv)
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: dense pair block on 16 pairs needs 8008 pair "
            "states, cap is 5000"]

    def test_explore_admits_the_grams_it_builds(self, tmp_path):
        # N = 6 on 36 pairs: the blocks of the sector hold 4193322 states,
        # over the cap; explore builds one Gram per seniority, 630, 34, 1 and
        # 1 states, while prop needs every block, the widest on C(36, 3) =
        # 7140 states, and is refused as it was
        code, report = run_cli(tmp_path, "explore", "--lambda", "geometric:0.99:36",
                               "--particles", "6")
        assert code == 0
        trial = bounds.verify_theorem2(parse_lambda_spec("geometric:0.99:36").values, 6)
        assert report["checks"][0]["observed"] >= trial.observed  # sup over states
        code, report = run_cli(tmp_path, "verify", "prop", "--lambda", "geometric:0.99:36",
                               "--particles", "6")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: dense pair block on 36 pairs needs 7140 pair "
            "states, cap is 5000"]

    def test_skipped_n_is_not_admitted(self, tmp_path):
        # odd N = 13 is skipped by explore; its pair blocks (3465840
        # states) would exceed the cap on all blocks together
        code, report = run_cli(tmp_path, "explore", "--lambda", "uniform:16",
                               "--particles", "2,13")
        assert code == 0
        assert report["checks"][1]["note"] == "skipped: N not admissible"

    def test_fully_skipped_thm2_writes_error_report(self, tmp_path):
        # no N evaluated is a vacuous pass, refused as --trials 0 is
        code, report = run_cli(tmp_path, "verify", "thm2", "--lambda", "uniform:4",
                               "--particles", "5")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "ValueError: no check evaluated in --particles 5: "
            "N=5 skipped: N must be a positive even integer"]
        # one evaluated N is enough
        code, report = run_cli(tmp_path, "verify", "thm2", "--lambda", "uniform:4",
                               "--particles", "5,4")
        assert code == 0
        assert [c["pass"] for c in report["checks"]] == [None, True]

    def test_oversized_profile_writes_error_report(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "thm2", "--lambda",
                               "uniform:99999999999", "--particles", "2")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            f"SectorSizeError: uniform profile of 99999999999 pairs, "
            f"cap is {cli.MAX_PROFILE_PAIRS}"]

    def test_eigenvector_and_operator_dumps(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "thm1", "--dim", "6",
                               "--particles", "3", "--trials", "2",
                               "--eigenvectors", "--dump-operator")
        assert code == 0
        spectra = [c for c in report["checks"] if c["kind"] == "spectrum"]
        assert len(spectra) == 2
        for row in spectra:
            details = row["details"]
            g = (np.array(details["operator"]["re"])
                 + 1j * np.array(details["operator"]["im"]))
            vecs = np.array([np.array(v["re"]) + 1j * np.array(v["im"])
                             for v in details["eigenvectors"]]).T
            assert g.shape == vecs.shape == (15, 15)
            for lam, x in zip(details["eigenvalues"], vecs.T):
                assert np.linalg.norm(g @ x - lam * x) <= 1e-10
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(15))) <= 1e-12

    def test_memory_error_writes_error_report(self, tmp_path, monkeypatch):
        def exhausted(args):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(cli, "_cmd_explore", exhausted)
        code, report = run_cli(tmp_path, "explore", "--lambda", "uniform:4",
                               "--particles", "2")
        assert code == 1
        assert report["checks"][0]["kind"] == "error"
        assert report["checks"][0]["note"].startswith("MemoryError")

    @pytest.mark.parametrize("text", ["1\nnan\n", "inf\n1\n"])
    def test_non_finite_profile_writes_error_report(self, tmp_path, text):
        profile = tmp_path / "profile.txt"
        profile.write_text(text)
        out = tmp_path / "report.json"
        code = main(["verify", "prop", "--lambda", f"file:{profile}",
                     "--particles", "2", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text(), parse_constant=_no_constant)
        assert [c["note"] for c in report["checks"]] == [
            "ValueError: coefficients and their norm must be finite"]

    @pytest.mark.parametrize("argv", [
        ["verify", "prop", "--lambda", "uniform:4"],
        ["explore", "--lambda", "uniform:4"],
        ["counterexample", "--lambda", "power:1:8"],
    ])
    def test_empty_particle_list_writes_error_report(self, tmp_path, argv):
        code, report = run_cli(tmp_path, *argv, "--particles", ",")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "ValueError: no particle number in ','"]

    @pytest.mark.parametrize("check", ["thm1", "occupation"])
    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_no_trial_writes_error_report(self, tmp_path, check, trials):
        code, report = run_cli(tmp_path, "verify", check, "--dim", "6",
                               "--particles", "3", "--trials", trials)
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            f"ValueError: no trial in --trials {trials}"]

    @pytest.mark.parametrize("m_max", ["0", "-1"])
    def test_no_norm_step_writes_error_report(self, tmp_path, m_max):
        code, report = run_cli(tmp_path, "verify", "norms", "--lambda",
                               "uniform:4", "--m-max", m_max)
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            f"ValueError: no recursion step in M_max = {m_max}"]

    def test_m_max_bounds_the_norm_steps(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "norms", "--lambda",
                               "uniform:4", "--m-max", "2")
        assert code == 0
        assert report["config"]["m_max"] == 2
        assert [c["params"]["M"] for c in report["checks"]] == [1, 2]

    @pytest.mark.parametrize("check", ["thm1", "occupation"])
    @pytest.mark.parametrize("particles", ["abc", "4,6", ""])
    def test_single_particle_number_is_usage_error(self, tmp_path, capsys,
                                                   check, particles):
        err = usage_error(tmp_path, capsys, "verify", check, "--particles", particles)
        assert "take a single particle number" in err

    def test_missing_lambda_is_usage_error(self, tmp_path, capsys):
        err = usage_error(tmp_path, capsys, "verify", "thm2", "--particles", "4")
        assert err == "verify thm2 requires --lambda\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_usage_error(self, tmp_path, capsys, tol):
        err = usage_error(tmp_path, capsys, "verify", "thm2", "--lambda", "uniform:4",
                          "--particles", "4", f"--tol={tol}")
        assert "--tol must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "prop", "--lambda", "uniform:4", "--particles", "2,4"],
        ["verify", "thm1", "--dim", "8", "--particles", "4", "--trials", "1"],
    ])
    def test_negative_tol_is_usage_error(self, tmp_path, capsys, argv):
        assert "--tol must be non-negative" in usage_error(tmp_path, capsys, *argv,
                                                           "--tol", "-1")
        code, report = run_cli(tmp_path, *argv, "--tol", "0")
        assert code in (0, 1) and report["config"]["tol"] == 0.0  # a verdict

    def test_directory_out_is_usage_error(self, tmp_path, capsys, refuse):
        refuse(cli, "_cmd_verify", "a handler ran")
        code = main(["verify", "thm2", "--lambda", "uniform:4", "--particles", "4",
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == f"report path {tmp_path} is a directory\n"
        assert list(tmp_path.iterdir()) == []

    THM2 = ["verify", "thm2", "--lambda", "uniform:4", "--particles", "4"]

    @pytest.mark.parametrize("argv, outdir, code, message", [
        (THM2 + ["--out", "F/r.json"], None, 2,
         "report path F/r.json lies under F, not a writable directory"),
        (THM2 + ["--out", "F/sub/r.json"], None, 2,
         "report path F/sub/r.json lies under F, not a writable directory"),
        (THM2, "F", 2,
         "report path F/verify_report.json lies under F, not a writable directory"),
        (THM2 + ["--out", "ro/r.json"], None, 2,
         "report path ro/r.json lies under ro, not a writable directory"),
        (THM2 + ["--out", "ro/sub/r.json"], None, 2,
         "report path ro/sub/r.json lies under ro, not a writable directory"),
        (THM2, "ro", 2,
         "report path ro/verify_report.json lies under ro, not a writable directory"),
        (["verify", "thm1", "--dim", "6", "--particles", "3", "--threads", "0",
          "--out", "report.json"], None, 2, "--threads must be at least 1, not 0"),
        (THM2 + ["--threads", "-5", "--out", "report.json"], None, 2,
         "--threads must be at least 1, not -5"),
        (["verify", "prop", "--lambda", "uniform:4", "--particles", "2,,4",
          "--out", "report.json"], None, 1,
         "ValueError: empty particle number in '2,,4'"),
        (["explore", "--lambda", "uniform:4", "--particles", "2,4,",
          "--out", "report.json"], None, 1,
         "ValueError: empty particle number in '2,4,'"),
    ], ids=["out-under-a-file", "out-deep-under-a-file", "outdir-is-a-file",
            "out-under-unwritable", "out-deep-under-unwritable", "outdir-is-unwritable",
            "threads-0", "threads-negative", "empty-field", "trailing-comma"])
    def test_refused_arguments(self, tmp_path, capsys, monkeypatch, refuse, argv,
                               outdir, code, message):
        # a usage error exits 2 with one stderr line before any handler
        # runs, and writes nothing; an empty --particles field is an error
        # report, as an empty list is.  Root passes every permission check,
        # so the directory ro is made unwritable through os.access.
        real_access, ro = os.access, tmp_path.resolve() / "ro"
        monkeypatch.setattr(cli.os, "access", lambda path, mode: (
            Path(path).resolve() != ro and real_access(path, mode)))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "F").write_text("a regular file\n")
        ro.mkdir()
        if outdir is None:
            monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.OUTDIR_ENV, outdir)
        if code == 2:
            for name in ("_cmd_verify", "_cmd_explore"):
                refuse(cli, name, "a handler ran")
        assert main(argv) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == message + "\n"
            assert sorted(p.name for p in tmp_path.rglob("*")) == ["F", "ro"]
            assert (tmp_path / "F").read_text() == "a regular file\n"
        else:
            report = json.loads((tmp_path / "report.json").read_text())
            assert [c["note"] for c in report["checks"]] == [message]

    @pytest.mark.parametrize("particles", ["8,4,6", "4,4"])
    def test_unordered_growth_writes_error_report(self, tmp_path, particles):
        code, report = run_cli(tmp_path, "counterexample", "--lambda", "power:0.5:12",
                               "--particles", particles, "--k-equals-n")
        assert code == 1
        assert [c["kind"] for c in report["checks"]] == ["error"]
        assert "strictly increasing" in report["checks"][0]["note"]

    @pytest.mark.parametrize("check", ["thm1", "occupation"])
    @pytest.mark.parametrize("seed,trials", [("-1", "1"), ("-5", "20"),
                                             (str(2 ** 64 - 2), "3"),
                                             (str(2 ** 64), "1")])
    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, refuse,
                                              check, seed, trials):
        refuse(cli, "random_state", "a state was drawn")
        err = usage_error(tmp_path, capsys, "verify", check, "--dim", "6",
                          "--particles", "3", "--seed", seed, "--trials", trials)
        assert f"--seed {seed} with --trials {trials} leaves the seed range" in err

    def test_last_seeds_of_the_range_are_drawn(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "thm1", "--dim", "6",
                               "--particles", "3", "--seed", str(2 ** 64 - 2),
                               "--trials", "2")
        assert code == 0
        assert [c["params"]["seed"] for c in report["checks"]
                if c["kind"] == "spectrum"] == [2 ** 64 - 2, 2 ** 64 - 1]

    def test_numerical_failure_writes_partial_report(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "thm2",
                               "--lambda", "file:/nonexistent/profile.txt",
                               "--particles", "4")
        assert code == 1
        assert report["checks"][0]["kind"] == "error"

    def test_threads_do_not_change_results(self, tmp_path):
        _, rep1 = run_cli(tmp_path, "verify", "thm1", "--dim", "6",
                          "--particles", "3", "--trials", "4", "--threads", "1")
        _, rep2 = run_cli(tmp_path, "verify", "thm1", "--dim", "6",
                          "--particles", "3", "--trials", "4", "--threads", "2")
        m1 = [c["margin"] for c in rep1["checks"]]
        m2 = [c["margin"] for c in rep2["checks"]]
        assert m1 == m2

    def test_timing_flag_embeds_elapsed(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "thm2", "--lambda",
                               "uniform:4", "--particles", "4", "--timing")
        assert code == 0
        assert report["timing"]["elapsed_s"] >= 0


class TestLogScanBudget:
    @pytest.fixture
    def no_scan(self, refuse):
        for name in ("_log_pair_sums", "occupation_masks"):
            refuse(pairing, name, "a log-form scan or pairing state ran")

    def test_thm2_refused_before_any_scan(self, tmp_path, no_scan):
        code, report = run_cli(tmp_path, "verify", "thm2", "--lambda", "uniform:1000000",
                               "--particles", "2000")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: log-form scans over 1000000 pairs up to M = 1000 take "
            f"1001000000 pair steps, cap is {cli.LOG_SCAN_STEPS}"]

    @pytest.mark.parametrize("budget, code", [(49, 1), (50, 0)])
    def test_thm2_budget_sums_the_scans_it_runs(self, tmp_path, monkeypatch, budget, code):
        # 10 (1 + 1) + 10 (2 + 1) steps for N = 2 and 4; N = 5 (odd) and
        # N = 12 (above K) are skipped and run no scan
        monkeypatch.setattr(cli, "LOG_SCAN_STEPS", budget)
        got, report = run_cli(tmp_path, "verify", "thm2", "--lambda", "uniform:10",
                              "--particles", "2,4,5,12")
        assert got == code
        if code:
            assert [c["note"] for c in report["checks"]] == [
                "SectorSizeError: log-form scans over 10 pairs up to M = 2 take "
                "50 pair steps, cap is 49"]
        else:
            assert [c["pass"] for c in report["checks"]] == [True, True, None, None]

    def test_norms_refused_before_any_scan(self, tmp_path, no_scan):
        # the pairing states' mask width refuses K > 62 before the first scan
        code, report = run_cli(tmp_path, "verify", "norms", "--lambda", "uniform:1000000")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: 1000000 pairs exceed the mask width of 62"]

    def test_norms_m_max_above_k_is_still_a_value_error(self, tmp_path):
        code, report = run_cli(tmp_path, "verify", "norms", "--lambda", "uniform:4",
                               "--m-max", "5")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "ValueError: M_max cannot exceed the number of pairs"]


class TestAtomicReports:
    @pytest.mark.parametrize("name", ["report.json", "report.csv"])
    def test_failed_write_keeps_the_old_report(self, tmp_path, monkeypatch, name):
        out = tmp_path / name
        assert main(["verify", "thm2", "--lambda", "uniform:4", "--particles", "4",
                     "--out", str(out)]) == 0
        old = out.read_bytes()

        def half_then_fail(path, text, encoding=None):
            with open(path, "w", encoding=encoding) as f:
                f.write(text[:len(text) // 2])
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_text", half_then_fail)
        report = build_report({"command": "verify"}, [], None)
        with pytest.raises(OSError, match="No space"):
            cli.write_report(report, out)
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_write_replaces_and_leaves_one_file(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("stale\n")
        report = build_report({"command": "verify"}, [], None)
        cli.write_report(report, out)
        assert out.read_text() == report_to_json(report)
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestReportDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify", "thm1", "--dim", "6", "--particles", "3",
                "--trials", "3", "--seed", "5"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_is_one_sorted_line(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", "occupation", "--dim", "6", "--particles", "3",
                     "--trials", "2", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        report = json.loads(text)
        assert json.dumps(report, sort_keys=True) + "\n" == text

        def assert_sorted(node):
            if isinstance(node, dict):
                assert list(node) == sorted(node)
                node = list(node.values())
            for child in node if isinstance(node, list) else ():
                assert_sorted(child)

        assert_sorted(report)
        assert report["checks"][1]["kind"] == "prop_occupation"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_writer_refuses_non_finite(self, bad):
        checks = [bounds.TheoremReport(kind="thm1", params={}, observed=bad)]
        with pytest.raises(ValueError):
            report_to_json(build_report({}, checks, None))

    def test_csv_flatten_contains_all_checks(self):
        from gamma2lab.bounds import TheoremReport
        checks = [TheoremReport(kind="thm1", params={"N": 4}, observed=1.0,
                                bound=2.0, margin=1.0, passed=True)]
        report = build_report({"command": "x"}, checks, None)
        text = report_to_csv(report)
        assert text.splitlines()[0].startswith("kind,param:N,observed")
        assert len(text.splitlines()) == 2


def _no_constant(name):
    raise AssertionError(f"{name} written to a report")


def _assert_plain(node, path="report"):
    """Every leaf is exactly str, int, float, bool or None; floats finite."""
    if type(node) is dict:
        for key, value in node.items():
            assert type(key) is str, path
            _assert_plain(value, f"{path}.{key}")
    elif type(node) is list:
        for i, value in enumerate(node):
            _assert_plain(value, f"{path}[{i}]")
    else:
        assert type(node) in (str, int, float, bool, type(None)), (path, type(node))
        assert type(node) is not float or math.isfinite(node), path


class TestPlainReports:
    """Checks hold plain JSON values when built; the writers convert nothing."""

    # every check kind, with its skipped or degenerate rows where it has them
    CASES = [
        (["verify", "thm1", "--dim", "6", "--particles", "3", "--trials", "1",
          "--eigenvectors", "--dump-operator"], {"spectrum", "thm1"}),
        (["verify", "occupation", "--dim", "6", "--particles", "3",
          "--trials", "1"], {"spectrum", "prop_occupation"}),
        (["verify", "thm2", "--lambda", "uniform:4", "--particles", "3,4"],
         {"thm2"}),
        (["verify", "prop", "--lambda", "file:{profile}", "--particles", "2,6"],
         {"prop_BB"}),
        (["verify", "norms", "--lambda", "file:{profile}"], {"norm_recursion"}),
        (["explore", "--lambda", "uniform:6", "--particles", "2,3"],
         {"conjecture"}),
        (["counterexample", "--lambda", "power:1:8", "--particles", "4,6",
          "--k-equals-n"], {"counterexample"}),
        (["canonical", "--tensor", "{tensor}", "--vectors"], {"canonical"}),
        (["verify", "thm2", "--lambda", "file:/nonexistent/profile.txt",
          "--particles", "4"], {"error"}),
    ]

    @pytest.mark.parametrize("argv, kinds", CASES,
                             ids=["-".join(sorted(k)) for _, k in CASES])
    def test_leaves_are_plain_json(self, tmp_path, monkeypatch, argv, kinds):
        write_inputs(tmp_path)
        profile = tmp_path / "support2.txt"
        profile.write_text("1\n1\n0\n0\n")  # support 2 of 4 pairs
        argv = [a.format(profile=profile, tensor=tmp_path / "tensor.txt") for a in argv]
        built = []

        def recording_build_report(config, checks, timing):
            built.append(checks)
            return build_report(config, checks, timing)

        monkeypatch.setattr(cli, "build_report", recording_build_report)
        code, report = run_cli(tmp_path, *argv)
        (checks,) = built
        assert {c.kind for c in checks} == kinds
        for check in checks:
            _assert_plain(check.to_dict(), check.kind)
        _assert_plain(report)

    def test_degenerate_details_are_null(self, tmp_path):
        profile = tmp_path / "profile.txt"
        profile.write_text("1\n1\n0\n0\n")
        reports = {}
        for argv in (["verify", "prop", "--particles", "2,6"],
                     ["verify", "norms"]):
            out = tmp_path / f"{argv[1]}.json"
            assert main(argv + ["--lambda", f"file:{profile}",
                                "--out", str(out)]) == 0
            text = out.read_text(encoding="utf-8")
            reports[argv[1]] = json.loads(text, parse_constant=_no_constant)
        # N = 6 needs 3 pairs: the pairing state vanishes
        assert [c["details"]["kernel_residual"] is None
                for c in reports["prop"]["checks"]] == [False, True]
        # ||Psi_3|| = 0, so the M = 4 norm ratio is undefined
        assert [c["details"]["second_order_residual"] is None
                for c in reports["norms"]["checks"]] == [False, False, False, True]


ROOT = Path(__file__).resolve().parents[1]


def _readme_commands():
    """The ``gamma2lab ...`` lines of the README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("gamma2lab ")]


def _read_report(path):
    text = Path(path).read_text(encoding="utf-8")
    if Path(path).suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        assert rows[0][0] == "kind" and len(rows) > 1
        return rows
    report = json.loads(text)
    assert report["checks"]
    return report


class TestDocumentedCommands:
    def test_readme_command_lines(self, tmp_path, monkeypatch):
        commands = _readme_commands()
        assert len(commands) >= 8
        assert commands == [argv for _, tags, argv in COMMANDS if "readme" in tags]
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        write_inputs(tmp_path)
        for argv in commands:
            assert main(argv) == 0, argv
            out = (argv[argv.index("--out") + 1] if "--out" in argv
                   else f"{argv[0]}_report.json")
            _read_report(out)

    def test_theorem_sweep_script(self, tmp_path):
        subprocess.run([sys.executable, str(ROOT / "scripts/run_theorem_sweep.py"),
                        "--dim", "6", "--particles", "3", "--trials", "2",
                        "--outdir", str(tmp_path)], check=True, capture_output=True)
        for check in ("thm1", "occupation"):
            _read_report(tmp_path / f"{check}_d6_n3.json")

    def test_conjecture_scan_script(self, tmp_path):
        def scan(particles, outdir):
            return subprocess.run(
                [sys.executable, str(ROOT / "scripts/run_conjecture_scan.py"),
                 "--profiles", "uniform:4", "power:1:6", "--particles", particles,
                 "--outdir", str(outdir)], capture_output=True, text=True)

        done = scan("2,4", tmp_path)
        assert done.returncode == 0
        for name in ("uniform_4.csv", "power_1_6.csv"):
            assert len(_read_report(tmp_path / name)) == 3
        # each report is the one `explore` writes
        assert main(["explore", "--lambda", "uniform:4", "--particles", "2,4",
                     "--out", str(tmp_path / "own.csv")]) == 0
        own, scanned = tmp_path / "own.csv", tmp_path / "uniform_4.csv"
        assert own.read_bytes() == scanned.read_bytes()
        # an empty field is an error report per profile and a failed scan,
        # not a traceback
        done = scan("2,,4", tmp_path / "bad")
        assert done.returncode == 1 and "Traceback" not in done.stderr
        for name in ("uniform_4.csv", "power_1_6.csv"):
            rows = _read_report(tmp_path / "bad" / name)
            assert [row[0] for row in rows[1:]] == ["error"]
        assert done.stdout.count("empty particle number in '2,,4'") == 2


ENVIRONMENT = """
import json, platform, sys
from gamma2lab import cli

cli.main(["verify", "thm2", "--lambda", "uniform:4", "--particles", "4",
          "--out", "report.json"])
with open("report.json", encoding="utf-8") as fh:
    environment = json.load(fh)["meta"]["environment"]
print(json.dumps([environment, platform.platform()]))
"""

MODULES_ADDED = """
import json, sys
from gamma2lab import cli

added = []
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    try:
        cli.main(argv)
    except SystemExit:  # argparse refuses the command line
        pass
    added.append(sorted(set(sys.modules) - before))
print(json.dumps(added))
"""

NUMPY_RANDOM_ADDS = """
import json, sys
from gamma2lab import cli

before = set(sys.modules)
import numpy.random
print(json.dumps(sorted(set(sys.modules) - before)))
"""

class TestCorpus:
    """The corpus run beyond its exit codes (those are checked with the
    fixed costs and in ``test_reach.py``)."""

    def test_lines_keep_the_failure_contract(self, corpus_run):
        # exit 2 writes no report and one message line, after argparse's
        # usage block where argparse refuses; every other line writes one
        # complete report, an error report alone on an error line, whose
        # refusal takes under 2 s even with the profiler on
        for (code, tags, argv), (_, stderr, seconds) in zip(corpus_run.lines,
                                                            corpus_run.runs):
            out = corpus_run.path / argv[argv.index("--out") + 1]
            messages = [ln for ln in stderr.splitlines()
                        if not ln.startswith(("usage: ", " "))]
            if code == 2:
                assert not out.exists() and len(messages) == 1, (argv, stderr)
            elif out.suffix == ".json":
                report = json.loads(out.read_text())
                assert report["schema_version"] == 1, argv
                if "error" in tags:
                    assert [c["kind"] for c in report["checks"]] == ["error"], argv
            if "error" in tags:
                assert seconds < 2.0, argv

    def test_heavy_lines_parse(self):
        assert {t for _, tags, _ in COMMANDS for t in tags} <= {"-", "readme", "error",
                                                               "heavy"}
        heavy = [argv for _, tags, argv in COMMANDS if "heavy" in tags]
        assert len(heavy) == 5
        for argv in heavy:
            cli.build_parser().parse_args(argv)


class TestFixedCosts:
    """One parser per process, no process started for a report, and no
    scipy imported for one."""

    def test_no_process_is_started(self, corpus_run):
        assert corpus_run.codes == corpus_run.expected and corpus_run.processes == []

    def test_commands_run_without_scipy(self, corpus_run):
        # scipy is a test extra: every command keeps its exit code, and each
        # report it writes names no scipy version
        assert corpus_run.codes == corpus_run.expected and corpus_run.scipy is None
        for code, _, argv in corpus_run.lines:
            report = corpus_run.path / argv[argv.index("--out") + 1]
            assert report.exists() == (code != 2)  # a usage error writes none
            if code != 2 and report.suffix == ".json":
                assert json.loads(report.read_text())["meta"]["scipy"] is None

    def test_environment_is_platform_string(self, tmp_path):
        environment, expected = json.loads(fresh("-c", ENVIRONMENT, cwd=tmp_path))
        assert environment == expected

    @pytest.mark.parametrize("release", ["6.1.0-13-amd64", " 5.15 (custom)/x:y;z\"w ",
                                         "4.19-unknown--build-", "unknown"])
    def test_environment_cleanup(self, monkeypatch, release):
        # platform.platform() of a Linux host whose processor is blank, on
        # releases that need each step of its cleanup
        uname = platform.uname_result("Linux", "node", release, "#1", "x86_64")
        uname.__dict__["processor"] = ""  # never ask `uname -p`
        monkeypatch.setattr(platform, "uname", lambda: uname)
        monkeypatch.setattr(platform, "libc_ver", lambda: ("glibc", "2.36"))
        monkeypatch.setattr(platform, "_platform_cache", {})
        assert cli._environment() == platform.platform()
        assert cli._environment().endswith("-with-glibc2.36")

    def test_meta_scipy_is_the_scipy_version(self, tmp_path):
        import scipy

        code, report = run_cli(tmp_path, "verify", "thm2", "--lambda", "uniform:4",
                               "--particles", "4")
        assert code == 0
        assert report["meta"]["scipy"] == cli.SCIPY_VERSION == scipy.__version__

    def test_main_imports_nothing_the_import_left_out(self, tmp_path):
        # argparse's gettext would import locale in the first main() had
        # the import not done it; the first line to draw a state (verify
        # thm1) loads numpy.random, which numpy loads on first use
        write_inputs(tmp_path)
        added = json.loads(fresh("-c", MODULES_ADDED,
                                 json.dumps([argv for _, _, argv in RUN]), cwd=tmp_path))
        random_only = json.loads(fresh("-c", NUMPY_RANDOM_ADDS, cwd=tmp_path))
        assert "numpy.random" in random_only
        assert [a for a in added if a] == [random_only]

    def test_import_ends_in_a_freeze(self, corpus_run):
        # what the imports made is out of every collection main() runs
        frozen, tracked = corpus_run.frozen
        assert frozen and not tracked

    def test_one_parser_per_process(self, corpus_run):
        at_import, built = corpus_run.parsers
        assert (at_import, built) == (0, 1)

    def test_mixed_sequence_matches_fresh_processes(self, tmp_path, monkeypatch):
        # flags set by one call must not reach the next through the parser
        commands = [
            ["verify", "prop", "--lambda", "geometric:0.5:6", "--particles", "2,4"],
            ["verify", "thm1", "--dim", "6", "--particles", "3", "--trials", "2",
             "--eigenvectors"],
            ["verify", "thm1", "--dim", "6", "--particles", "3", "--trials", "2"],
            ["counterexample", "--lambda", "power:1:8", "--particles", "4,6",
             "--k-equals-n"],
        ]
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        for i, argv in enumerate(commands):
            assert main(argv + ["--out", str(tmp_path / f"seq{i}.json")]) == 0
        for i, argv in enumerate(commands):
            fresh("-m", "gamma2lab", *argv, "--out", f"own{i}.json", cwd=tmp_path)
            assert ((tmp_path / f"seq{i}.json").read_bytes()
                    == (tmp_path / f"own{i}.json").read_bytes()), argv
        spectra = [json.loads((tmp_path / f"seq{i}.json").read_text())["checks"][0]
                   for i in (1, 2)]
        assert ["eigenvectors" in s["details"] for s in spectra] == [True, False]


class TestSweepCap:
    @pytest.mark.parametrize("check", ["thm1", "occupation"])
    def test_huge_sweep_refused_before_any_state(self, tmp_path, refuse, check):
        refuse(cli, "random_state", "a state was drawn")
        started = time.perf_counter()
        code, report = run_cli(tmp_path, "verify", check, "--dim", "8",
                               "--particles", "4", "--trials", "1000000000")
        assert time.perf_counter() - started < 0.5
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: --trials 1000000000 at d=8 may write 29000000000 "
            f"report rows, cap is {cli.SWEEP_MAX_ROWS}"]

    @pytest.mark.parametrize("d", [2, 8, 24])
    def test_admits_a_sweep_just_under_the_cap(self, d):
        per_trial = 1 + d * (d - 1) // 2
        trials = cli.SWEEP_MAX_ROWS // per_trial
        cli.admit_sweep(d, trials)
        with pytest.raises(SectorSizeError, match=f"may write {(trials + 1) * per_trial} "):
            cli.admit_sweep(d, trials + 1)

    @pytest.mark.parametrize("flags", [["--eigenvectors"], ["--dump-operator"],
                                       ["--eigenvectors", "--dump-operator"]])
    def test_dumps_count_against_the_cap(self, tmp_path, monkeypatch, flags):
        # 8264 trials at d=16 are 999,944 rows, just under the cap without
        # dumps; each dump adds 2 * 120**2 floats to every trial
        def no_state(*args):
            raise ValueError("a state was drawn")

        monkeypatch.setattr(cli, "random_state", no_state)
        argv = ["verify", "thm1", "--dim", "16", "--particles", "8", "--trials", "8264"]
        code, report = run_cli(tmp_path, *argv, *flags)
        assert code == 1
        dumped = 8264 * len(flags) * 2 * 120 ** 2 * cli.DUMP_FLOAT_BYTES
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: --trials 8264 at d=16 may write 999944 report rows "
            f"and dumps worth {-(-dumped // cli.SWEEP_ROW_BYTES)} rows more, "
            f"cap is {cli.SWEEP_MAX_ROWS}"]
        code, report = run_cli(tmp_path, *argv)  # admitted, so it draws
        assert [c["note"] for c in report["checks"]] == ["ValueError: a state was drawn"]

    @pytest.mark.parametrize("d,dumps", [(8, 1), (8, 2), (16, 2)])
    def test_admits_a_dumping_sweep_just_under_the_cap(self, d, dumps):
        n_pairs = d * (d - 1) // 2
        per_trial = ((1 + n_pairs) * cli.SWEEP_ROW_BYTES
                     + dumps * 2 * n_pairs ** 2 * cli.DUMP_FLOAT_BYTES)
        trials = cli.SWEEP_MAX_ROWS * cli.SWEEP_ROW_BYTES // per_trial
        cli.admit_sweep(d, trials, dumps)
        with pytest.raises(SectorSizeError, match="and dumps worth"):
            cli.admit_sweep(d, trials + 1, dumps)


class TestGamma2Plan:
    @pytest.mark.parametrize("chunk,plan", [(rdm.GRAM_CHUNK, [1, 28]), (8, [11, 6])])
    def test_spectrum_rows_record_the_block_plan(self, tmp_path, monkeypatch, chunk,
                                                 plan):
        # at GRAM_CHUNK = 8 the sum runs over 11 blocks of at most C(4, 2) columns
        monkeypatch.setattr(rdm, "GRAM_CHUNK", chunk)
        code, report = run_cli(tmp_path, "verify", "thm1", "--dim", "8",
                               "--particles", "4", "--trials", "3")
        assert code == 0
        plans = [[c["details"]["gamma2_blocks"], c["details"]["gamma2_widest"]]
                 for c in report["checks"] if c["kind"] == "spectrum"]
        assert plans == [plan] * 3
