"""Profile parsing, seeded state generation, and the report-writing CLI."""

import csv
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gamma2lab import bounds, cli
from gamma2lab.canonical import random_tensor, write_tensor_text
from gamma2lab.cli import (build_report, main, parse_lambda_spec, random_state,
                           report_to_csv, report_to_json)


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

    @pytest.mark.parametrize("text", ["power:nan:4", "geometric:inf:4",
                                      "file:1\nnan\n", "file:inf\n1\n"])
    def test_rejects_non_finite(self, tmp_path, text):
        if text.startswith("file:"):
            path = tmp_path / "profile.txt"
            path.write_text(text.removeprefix("file:"))
            text = f"file:{path}"
        with pytest.raises(ValueError, match="finite"):
            parse_lambda_spec(text)


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


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


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

    def test_gamma2_over_budget_writes_error_report(self, tmp_path):
        # C(24, 10) * 276 * 16 B ~ 8.7 GB of pair-annihilated vectors
        code, report = run_cli(tmp_path, "verify", "thm1", "--dim", "24",
                               "--particles", "12", "--trials", "1")
        assert code == 1
        assert report["checks"][0]["kind"] == "error"
        assert report["checks"][0]["note"].startswith("SectorSizeError")

    @pytest.mark.parametrize("check", ["thm1", "occupation"])
    def test_gamma2_refused_before_any_state(self, tmp_path, monkeypatch, check):
        def no_state(*args):
            raise AssertionError("a state was drawn")

        monkeypatch.setattr(cli, "random_state", no_state)
        code, report = run_cli(tmp_path, "verify", check, "--dim", "24",
                               "--particles", "12", "--trials", "1")
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: reduced operator of (d=24, N=12) needs "
            "8660906496 bytes of pair-annihilated vectors, budget is 2147483648"]

    def test_canonical_subcommand(self, tmp_path):
        tensor_path = tmp_path / "tensor.txt"
        write_tensor_text(tensor_path, random_tensor(6, np.random.default_rng(0)))
        code, report = run_cli(tmp_path, "canonical", "--tensor", str(tensor_path))
        assert code == 0
        check = report["checks"][0]
        assert check["pass"]
        assert abs(sum(x ** 2 for x in check["details"]["lambdas"]) - 1.0) < 1e-8

    def test_canonical_tol_bounds_the_round_trip(self, tmp_path):
        tensor_path = tmp_path / "tensor.txt"
        write_tensor_text(tensor_path, random_tensor(6, np.random.default_rng(0)))
        code, report = run_cli(tmp_path, "canonical", "--tensor", str(tensor_path),
                               "--tol", "1e-20")
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

    def test_counterexample_beyond_full_sector_cap(self, tmp_path):
        # K = N = 14 means d = 28, above the full-sector cap; the pair basis
        # of the check holds C(14, 7) = 3432 states.
        code, report = run_cli(tmp_path, "counterexample", "--lambda",
                               "power:1:14", "--particles", "14", "--k-equals-n")
        assert code == 0
        assert [c["pass"] for c in report["checks"]] == [True]

    @pytest.mark.parametrize("argv", [
        ["explore", "--lambda", "uniform:16", "--particles", "2,4,6,8,10,12"],
        ["verify", "prop", "--lambda", "uniform:16", "--particles", "8,12"],
    ])
    def test_oversized_n_refused_before_any_solve(self, tmp_path, monkeypatch, argv):
        # N = 12 on 16 pairs needs a dense block of C(16, 6) = 8008 states
        def no_solve(*args):
            raise AssertionError("a pair block was built")

        monkeypatch.setattr(bounds, "pair_blocks", no_solve)
        code, report = run_cli(tmp_path, *argv)
        assert code == 1
        assert [c["note"] for c in report["checks"]] == [
            "SectorSizeError: dense pair block on 16 pairs needs 8008 pair "
            "states, cap is 5000"]

    def test_skipped_n_is_not_admitted(self, tmp_path):
        # odd N = 13 is skipped by explore; its blocks (C(15, 6) = 5005
        # states) would exceed the dense cap
        code, report = run_cli(tmp_path, "explore", "--lambda", "uniform:16",
                               "--particles", "2,13")
        assert code == 0
        assert report["checks"][1]["note"] == "skipped: N not admissible"

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
    @pytest.mark.parametrize("particles", ["abc", "4,6", ""])
    def test_single_particle_number_is_usage_error(self, tmp_path, capsys,
                                                   check, particles):
        out = tmp_path / "report.json"
        code = main(["verify", check, "--particles", particles, "--out", str(out)])
        assert code == 2
        assert "take a single particle number" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_lambda_is_usage_error(self, tmp_path):
        code = main(["verify", "thm2", "--particles", "4",
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

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
        profile = tmp_path / "profile.txt"
        profile.write_text("1\n1\n0\n0\n")  # support 2 of 4 pairs
        tensor = tmp_path / "tensor.txt"
        write_tensor_text(tensor, random_tensor(6, np.random.default_rng(0)))
        argv = [a.format(profile=profile, tensor=tensor) for a in argv]
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
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTDIR_ENV, raising=False)
        write_tensor_text("tensor.txt", random_tensor(6, np.random.default_rng(0)))
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
        subprocess.run([sys.executable, str(ROOT / "scripts/run_conjecture_scan.py"),
                        "--profiles", "uniform:4", "power:1:6", "--particles", "2,4",
                        "--outdir", str(tmp_path)], check=True, capture_output=True)
        for name in ("uniform_4.csv", "power_1_6.csv"):
            assert len(_read_report(tmp_path / name)) == 3
