"""The command corpus ``commands.txt``: its lines, the input files they
read, and fresh interpreters to run them in."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

from gamma2lab import cli
from gamma2lab.canonical import (CanonicalForm, random_tensor, reconstruct,
                                 write_tensor_text)

HERE = Path(__file__).resolve().parent


def load():
    """``(exit code, tags, argv)`` of every line of ``commands.txt``."""
    lines = []
    for text in (HERE / "commands.txt").read_text(encoding="utf-8").splitlines():
        if fields := shlex.split(text, comments=True):
            code, tags, *argv = fields
            lines.append((int(code), tags.split(","), argv))
    return lines


COMMANDS = load()
# the lines one session runs: tagged neither readme nor heavy, each with
# --out rN.json unless it names its report
RUN = [(code, tags, argv if "--out" in argv else argv + ["--out", f"r{i}.json"])
       for i, (code, tags, argv) in enumerate(COMMANDS)
       if "readme" not in tags and "heavy" not in tags]


def write_inputs(path):
    """The files the corpus lines read, in the directory ``path``."""
    for name in ("tensor.txt", "t6.txt"):
        write_tensor_text(path / name, random_tensor(6, np.random.default_rng(0)))
    (path / "big.txt").write_text("4\n0 1 1e200 0\n2 3 1e200 0\n")
    # pairs of 1e-8 and 1e-9 on Hadamard columns: the partners found in
    # their merged cluster are orthonormal only to 6.9e-8 and get repaired
    h = np.array([[1.0]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    tiny = CanonicalForm([1.0, 1e-8, 1e-9], h[:, :6] / np.sqrt(8))  # norm 1 in floats
    write_tensor_text(path / "tiny.txt", reconstruct(tiny))
    (path / "profile.txt").write_text("# weights\n3\n2\n1\n1\n")
    (path / "afile").write_text("")  # a regular file, no report directory


def fresh(*argv, cwd):
    """Run ``python argv...`` in a fresh interpreter importing the package
    from this checkout, within two minutes; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    env.pop(cli.OUTDIR_ENV, None)
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout
