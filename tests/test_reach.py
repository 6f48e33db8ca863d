"""Every package function is on a command's path or is a named oracle.

A fresh interpreter imports the command line and runs ``COMMANDS`` under
``sys.setprofile``, recording the code object of every Python frame
entered.  The package's functions are found by walking its modules:
functions, methods, properties, ``lru_cache`` and ``cached_property``
targets, and the functions nested in any of them.  Each must be entered by
some command or be a key of ``ORACLES``, the brute-force and full-sector
code that the tests compare a command path against, mapped to the
command-path function it checks; and no command may enter an oracle.
Functions are matched by code object, not by ``co_qualname`` (Python 3.11
and later only), so the test runs on every supported Python.
"""

import json

import numpy as np

from gamma2lab.canonical import (CanonicalForm, random_tensor, reconstruct,
                                 write_tensor_text)

from test_cli import _fresh

# oracle -> the command-path function the tests check with it
ORACLES = {
    "bounds.sup_over_states": "bounds.block_sups",
    "bounds.sup_over_states.matvec": "bounds.block_sups",
    "canonical.AntisymmetricTensor.wedge_amplitudes": "canonical.wedge_matrices",
    "canonical.canonical_from_lambdas": "bounds.verify_theorem2",
    "canonical.elementary_wedge": "canonical.youla_decompose",
    "canonical.embed_as_sector_vector": "pairing.pairing_states",
    "canonical.random_tensor": "canonical.youla_decompose",
    "canonical.tensor_inner": "canonical.youla_decompose",
    "canonical.write_tensor_text": "canonical.read_tensor_text",
    "fock.SectorBasis.index_of": "fock.occupation_masks",
    "fock.SectorVector.__add__": "pairing.pairing_states",
    "fock.SectorVector.__mul__": "pairing.pairing_states",
    "fock.SectorVector.__sub__": "pairing.pairing_states",
    "fock.SectorVector._check_same_sector": "pairing.pairing_states",
    "fock.SectorVector.inner": "fock._hops",
    "fock.SectorVector.norm": "pairing.pairing_states",
    "fock.SectorVector.normalized": "rdm.compute_gamma2",
    "fock.SectorVector.single": "fock._hops",
    "fock._check_orbital": "fock._hops",
    "fock._coefficient_terms": "rdm.one_body_matrix",
    "fock._scatter": "fock._hops",
    "fock.apply_annihilate": "fock._hops",
    "fock.apply_annihilate_vector": "rdm.one_body_matrix",
    "fock.apply_create": "fock._hops",
    "fock.basis_state": "fock._hops",
    "fock.slater_state": "rdm.compute_gamma2",
    "fock.vacuum_state": "fock._hops",
    "pairing.PairingState.vector": "pairing.pair_expectation_and_norm",
    "pairing.annihilation_identity_check": "pairing.pairing_states",
    "pairing.apply_B": "bounds.block_sups",
    "pairing.apply_B_star": "bounds.block_sups",
    "pairing.build_pairing_state": "pairing.pairing_states",
    "pairing.commutator_defect": "bounds.proposition_gap",
    "pairing.dense_b_matrix": "bounds.proposition_gap",
    "pairing.norm_sq_oracle": "pairing.pairing_states",
    "pairing.pair_number_diagonal": "bounds.proposition_gap",
    "rdm.apply_pair_annihilator": "rdm.compute_gamma2",
    "rdm.expectation": "rdm.compute_gamma2",
    "rdm.expectation_fast": "rdm.compute_gamma2",
}

# every subcommand and flag, a file: profile, a CSV report, rare input
# (tiny.txt needs the Gram-Schmidt repair, N = 3 is a skipped thm2 row), an
# error report and a usage error, with their exit codes
COMMANDS = [
    (["canonical", "--tensor", "t6.txt", "--vectors"], 0),
    (["canonical", "--tensor", "big.txt", "--normalize", "--tol", "1e-9"], 0),
    (["canonical", "--tensor", "tiny.txt"], 0),
    (["verify", "thm1", "--dim", "6", "--particles", "3", "--trials", "2", "--seed", "5",
      "--threads", "2", "--eigenvectors", "--dump-operator", "--timing"], 0),
    (["verify", "occupation", "--dim", "6", "--particles", "3", "--trials", "2"], 0),
    (["verify", "thm2", "--lambda", "uniform:4", "--particles", "3,4"], 0),
    (["verify", "prop", "--lambda", "geometric:0.5:4", "--particles", "2,4"], 0),
    (["verify", "norms", "--lambda", "file:profile.txt", "--m-max", "3"], 0),
    (["explore", "--lambda", "uniform:6", "--particles", "2,4", "--out", "explore.csv"], 0),
    (["counterexample", "--lambda", "power:1:8", "--particles", "4,6", "--k-equals-n"], 0),
    (["verify", "thm1", "--dim", "25", "--particles", "12", "--trials", "1"], 1),
    (["verify", "thm2", "--particles", "4"], 2),
]

REACH = """
import functools, importlib, json, os, pkgutil, sys, types

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
from gamma2lab import cli  # what runs at import counts too

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:  # argparse refuses the command line
        codes.append(exc.code)
sys.setprofile(None)

import gamma2lab

root = os.path.dirname(gamma2lab.__file__)
names = {}


def add(code, name):
    # generated methods (dataclass, NamedTuple) come from no package file
    if code.co_filename.startswith(root) and code not in names:
        names[code] = name
        for const in code.co_consts:  # nested functions, not comprehensions
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                add(const, name + "." + const.co_name)


def visit(obj, name, module):
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        for part in (obj.fget, obj.fset, obj.fdel):
            if part is not None:
                visit(part, name, module)
        return
    if isinstance(obj, functools.cached_property):
        obj = obj.func
    obj = getattr(obj, "__wrapped__", obj)  # an lru_cache target
    if isinstance(obj, types.FunctionType) and obj.__module__ == module:
        add(obj.__code__, name)


modules = {"__init__": gamma2lab}
for info in pkgutil.iter_modules(gamma2lab.__path__):
    modules[info.name] = importlib.import_module("gamma2lab." + info.name)
for short, module in modules.items():
    for attr, obj in vars(module).items():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for member, value in vars(obj).items():
                visit(value, short + "." + attr + "." + member, module.__name__)
        else:
            visit(obj, short + "." + attr, module.__name__)
print(json.dumps([codes, sorted(n for c, n in names.items() if c in entered),
                  sorted(n for c, n in names.items() if c not in entered)]))
"""


def write_inputs(path):
    """The tensor and profile files ``COMMANDS`` read."""
    write_tensor_text(path / "t6.txt", random_tensor(6, np.random.default_rng(0)))
    (path / "big.txt").write_text("4\n0 1 1e200 0\n2 3 1e200 0\n")
    # pairs of 1e-8 and 1e-9 on Hadamard columns: the partners found in
    # their merged cluster are orthonormal only to 6.9e-8 and get repaired
    h = np.array([[1.0]])
    for _ in range(3):
        h = np.block([[h, h], [h, -h]])
    tiny = CanonicalForm([1.0, 1e-8, 1e-9], h[:, :6] / np.sqrt(8))  # norm 1 in floats
    write_tensor_text(path / "tiny.txt", reconstruct(tiny))
    (path / "profile.txt").write_text("# weights\n3\n2\n1\n1\n")


def test_every_function_is_on_a_command_path_or_an_oracle(tmp_path):
    write_inputs(tmp_path)
    argvs = [argv if "--out" in argv else argv + ["--out", f"r{i}.json"]
             for i, (argv, _) in enumerate(COMMANDS)]
    codes, entered, missed = json.loads(_fresh("-c", REACH, json.dumps(argvs),
                                               cwd=tmp_path))
    assert codes == [code for _, code in COMMANDS]
    assert sorted(set(ORACLES) & set(entered)) == []  # no command enters an oracle
    assert sorted(set(missed) - set(ORACLES)) == []   # nor leaves a function unused
    assert sorted(set(ORACLES) - set(missed)) == []   # every oracle exists
    assert sorted(set(ORACLES.values()) - set(entered)) == []
