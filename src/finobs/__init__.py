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

from .errors import (
    FinobsError,
    Inconsistent,
    InsufficientLabels,
    NonIdealFamily,
    NotCommeasurable,
    NotEquivariant,
    NotInvariant,
    OutsideDomain,
    SchemaError,
    ToleranceError,
    UnorderedLabels,
    ValidationError,
)
from .measurement import (
    LabelSet,
    ObjectSet,
    PartialLabeling,
    PartitionPlus,
    Scale,
    common_coarsening,
    common_refinement,
    ideal_contains,
    ideal_members,
    is_observable,
    label_codes,
    le,
    partition_of_family,
    pref_le,
    pushforward_partition,
    scale_to_partition,
)
from .finitary import (
    EigenSystem,
    Polynomial,
    apply,
    commeasurable,
    complete_extension,
    diagonalize,
    from_eigenpairs,
    functional_calculus,
    in_domain,
    is_complete,
    is_extension,
    joint_eigensystem,
    joint_generator,
    minimal_polynomial,
    orbit_span_dim,
    project,
    restrict,
    table_function,
)
from .dynamics import (
    compress_state,
    complementarity_pair,
    concatenate,
    evolve,
    expectation,
    oscillator_hamiltonian,
    propagator,
    subspace_intersection,
    variance,
)
from .socks import (
    ChoiceFunction,
    FlipAction,
    PairFamily,
    PairVector,
    SignedTensor,
    TruncatedFockVector,
    apply_diagonal,
    apply_pair_diagonal,
    flip,
    fock_basis_vector,
    generator_tensor,
    is_flip_invariant,
    least_support,
    pair_inner,
    pair_tensor,
    tensor_inner,
)
from .fhlogic import (
    FHOperator,
    FiniteSupportVector,
    SymbolicSubspace,
    SymbolicTrace,
    canonicalize,
    decompose_equivariant,
    fh_apply,
    fh_to_matrix,
    is_orthogonal,
    modularity_check,
    refute_density,
    represent_functional,
    subspace,
    subspace_equal,
    subspace_join,
    subspace_meet,
    two_valued_state,
    zero_sum_compatible,
)
from .serial import dumps_value, load_value, loads_value, save_value

__version__ = "0.1.0"
