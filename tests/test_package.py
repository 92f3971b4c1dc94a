"""The public `finobs` namespace: its names, and which modules it loads.

`import finobs` binds the exception types and resolves every other
public name on first use, so the names below must keep resolving to the
objects their modules define.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import finobs

ROOT = Path(__file__).resolve().parent.parent

# every public name `finobs` exports, by defining module
EXPORTS = {
    "errors": """FinobsError Inconsistent InsufficientLabels NonIdealFamily NotCommeasurable
        NotEquivariant NotInvariant OutsideDomain SchemaError ToleranceError UnorderedLabels
        ValidationError""",
    "measurement": """LabelSet ObjectSet PartialLabeling PartitionPlus Scale common_coarsening
        common_refinement ideal_contains ideal_members is_observable label_codes le
        partition_of_family pref_le pushforward_partition scale_to_partition""",
    "finitary": """EigenSystem Polynomial apply commeasurable complete_extension diagonalize
        from_eigenpairs functional_calculus in_domain is_complete is_extension joint_eigensystem
        joint_generator minimal_polynomial orbit_span_dim project restrict table_function""",
    "dynamics": """compress_state complementarity_pair concatenate evolve expectation
        oscillator_hamiltonian propagator subspace_intersection variance""",
    "socks": """ChoiceFunction FlipAction PairFamily PairVector SignedTensor TruncatedFockVector
        apply_diagonal apply_pair_diagonal flip fock_basis_vector generator_tensor
        is_flip_invariant least_support pair_inner pair_tensor tensor_inner""",
    "fhlogic": """FHOperator FiniteSupportVector SymbolicSubspace SymbolicTrace canonicalize
        decompose_equivariant fh_apply fh_to_matrix is_orthogonal modularity_check
        refute_density represent_functional subspace subspace_equal subspace_join subspace_meet
        two_valued_state zero_sum_compatible""",
    "serial": "dumps_value load_value loads_value save_value",
}
SUBMODULES = {"numeric", *EXPORTS}


def test_every_exported_name_is_its_modules_object():
    names = {name: module for module, text in EXPORTS.items() for name in text.split()}
    assert set(finobs.__all__) == set(names) | SUBMODULES
    assert len(finobs.__all__) == len(set(finobs.__all__))
    for name in finobs.__all__:
        if name in SUBMODULES:
            assert getattr(finobs, name) is importlib.import_module(f"finobs.{name}")
        else:
            module = importlib.import_module(f"finobs.{names[name]}")
            assert getattr(finobs, name) is getattr(module, name), name
    assert set(finobs.__all__) <= set(dir(finobs))


def test_star_import_yields_every_exported_name():
    namespace = {}
    exec("from finobs import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(finobs.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        finobs.no_such_name  # noqa: B018


SCRIPT = """
import json, sys
import finobs
bare = sorted(m for m in sys.modules if m.startswith("finobs"))
print(json.dumps([bare, finobs.fhlogic.__name__, finobs.subspace_meet.__module__]))
"""


def test_bare_import_loads_errors_only_and_resolves_modules_on_use():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    bare, fhlogic_name, meet_module = json.loads(done.stdout)
    assert bare == ["finobs", "finobs.errors"]
    assert fhlogic_name == meet_module == "finobs.fhlogic"
