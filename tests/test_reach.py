"""Every package function is on a command's path or is a named oracle.

The corpus run (``corpus_run`` of ``conftest.py``) records every Python
frame its command lines enter.  The package's functions are read off its
source: every code object a module compiles to, nested ones included
(methods, nested functions and class bodies; not lambdas or
comprehensions), named by its dotted path and matched to the frames by
file, first line and name, so the test runs on every supported Python.
Each must be entered by some command or be a key of ``ORACLES``, the
brute-force and full-sector code that the tests compare a command path
against, mapped to the command-path function it checks; and no command may
enter an oracle.

Each function also has one name and takes one form of each input: the
package binds no function of its own, so every function is reached through
its module, and a canonical form is taken only by ``canonical``, every
other module being passed its tensor or its coefficients.
"""

import ast
import types
from pathlib import Path

import gamma2lab

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gamma2lab"


# oracle -> the command-path function the tests check with it
ORACLES = {
    "bounds.sup_over_states": "bounds.block_sups",
    "bounds.sup_over_states.matvec": "bounds.block_sups",
    "canonical.AntisymmetricTensor.wedge_amplitudes": "canonical.wedge_matrices",
    "canonical.canonical_from_lambdas": "canonical.correlation_measures",
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
    "pairing.PairingState.vector": "pairing.pair_expectation_and_norm",
    "pairing.annihilation_identity_check": "pairing.pairing_states",
    "pairing.apply_B": "bounds.block_sups",
    "pairing.apply_B_star": "bounds.block_sups",
    "pairing.build_pairing_state": "pairing.pairing_states",
    "pairing.commutator_defect": "bounds.proposition_gap",
    "pairing.dense_b_matrix": "bounds.proposition_gap",
    "pairing.pair_number_diagonal": "bounds.proposition_gap",
    "rdm.apply_pair_annihilator": "rdm.compute_gamma2",
    "rdm.expectation": "rdm.compute_gamma2",
    "rdm.expectation_fast": "rdm.compute_gamma2",
}


def _functions():
    """Dotted name of each function of the package, by (file name, first
    line, name)."""
    found = {}

    def walk(code, name, file):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                found[file, const.co_firstlineno, const.co_name] = f"{name}.{const.co_name}"
                walk(const, f"{name}.{const.co_name}", file)

    for path in PACKAGE.glob("*.py"):
        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem,
             path.name)
    return found


def test_every_function_is_on_a_command_path_or_an_oracle(corpus_run):
    assert corpus_run.codes == corpus_run.expected
    functions = _functions()
    entered = {functions.get(tuple(key)) for key in corpus_run.entered} - {None}
    missed = set(functions.values()) - entered
    assert sorted(set(ORACLES) & entered) == []  # no command enters an oracle
    assert sorted(missed - set(ORACLES)) == []   # nor leaves a function unused
    assert sorted(set(ORACLES) - missed) == []   # every oracle exists
    assert sorted(set(ORACLES.values()) - entered) == []


def test_the_package_binds_only_its_version_and_modules():
    assert gamma2lab.__version__
    assert [name for name, obj in vars(gamma2lab).items()
            if not name.startswith("_") and not isinstance(obj, types.ModuleType)] == []


def test_only_canonical_names_the_canonical_form():
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, attr, None) for node in ast.walk(tree)
                 for attr in ("id", "attr", "name")}  # names, attributes, imports
        assert path.name == "canonical.py" or "CanonicalForm" not in names, path.name
