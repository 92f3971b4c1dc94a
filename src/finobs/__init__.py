"""Finitary observables: eigen-data operator calculus at desk scale.

The package has three layers.  `measurement` handles the label-free
combinatorics of measuring finitely many objects: partial labelings,
the information and preference orders, and the partition codes of the
ideals they generate.  `finitary` and `dynamics` realize observables as
explicit eigenvalue/eigenvector lists with functional calculus, joint
diagonalization, Schrodinger evolution, and the closed-form operator
pairs behind the uncertainty bound.  `socks` and `fhlogic` build the
symbolic models: sign-alternating tensors over sock pairs, finite-block
plus scalar operators, and the modular subspace class carrying the
two-valued dimension state.  `serial` and `cli` add canonical JSON
persistence and a batch front end; `verify` holds the self-check
suites.
"""

import importlib

from .errors import *  # noqa: F403  (errors defines only the exception types)

# public name -> the module that defines it.  Each module is imported on
# first use (PEP 562), so a CLI call compiles only the modules it runs.
_SOURCE = {
    name: module
    for module, names in {
        "errors": """FinobsError Inconsistent InsufficientLabels NonIdealFamily NotCommeasurable
            NotEquivariant NotInvariant OutsideDomain SchemaError ToleranceError UnorderedLabels
            ValidationError""",
        "measurement": """LabelSet ObjectSet PartialLabeling PartitionPlus Scale ideal_contains
            ideal_members is_observable label_codes le partition_of_family pref_le
            pushforward_partition scale_to_partition""",
        "finitary": """EigenSystem Polynomial apply commeasurable diagonalize from_eigenpairs
            functional_calculus in_domain is_complete joint_eigensystem joint_generator
            minimal_polynomial orbit_span_dim restrict table_function""",
        "dynamics": """compress_state complementarity_pair concatenate evolve expectation
            oscillator_hamiltonian propagator subspace_intersection variance""",
        "socks": """ChoiceFunction FlipAction PairVector SignedTensor TruncatedFockVector
            apply_diagonal flip fock_basis_vector generator_tensor is_flip_invariant least_support
            pair_inner pair_tensor tensor_inner""",
        "fhlogic": """FHOperator FiniteSupportVector SymbolicSubspace SymbolicTrace canonicalize
            decompose_equivariant fh_apply fh_to_matrix is_orthogonal modularity_check
            refute_density represent_functional subspace subspace_equal subspace_join
            subspace_meet two_valued_state zero_sum_compatible""",
        "serial": "dumps_value load_value loads_value",
    }.items()
    for name in names.split()
}
# `finobs.<module>` resolves on first use as well
_SUBMODULES = ("numeric", *dict.fromkeys(_SOURCE.values()))
__all__ = [*_SOURCE, *_SUBMODULES]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
