"""Homology of idempotent set-theoretic Yang-Baxter solutions.

Normal forms through Coxeter-monoid actions, braided (co)homology with
bimodule coefficients, quantum shuffle / cup / circle products, critical
complexes, and the quantum-symmetrizer comparison with the Hochschild
homology of the structure monoid.
"""

from .braided import (
    BoundExceeded,
    BraidedSet,
    BraidedSetError,
    CheckReport,
    adjoin_unit,
    apply_braid_word,
    apply_generator,
    check_idempotent,
    check_pseudo_unit,
    check_ybe,
    erase_letter,
    is_normal,
    longest_word,
    normal_form,
    normal_product,
    normal_words,
    reduced_normal_product,
    verify_braided_semigroup,
    word_braiding,
)
from .bimodules import (
    Bimodule,
    BimoduleAlgebra,
    adjoint_bimodule,
    adjoint_left_module,
    adjoint_right_module,
    monoid_bimodule,
    trivial_bimodule,
    verify_bimodule,
    verify_bimodule_algebra,
)
from .catalog import (
    FiniteLattice,
    IsoClassReport,
    boolean_lattice,
    braided_set_isomorphic,
    chain_lattice,
    divisor_lattice,
    enumerate_idempotent_braidings,
    exact_factorization,
    flip_braiding,
    identity_braiding,
    lattice_braiding,
    minmax_braiding,
    size2_family,
    SIZE2_TAGS,
    trivial_factorization,
)
from .complexes import (
    RSubgroup,
    braided_chain_complex,
    braided_cochain_complex,
    braided_two_sided_complex,
    check_R_conditions,
    critical_basis,
    critical_complex,
    fixed_pairs_subgroup,
    is_critical_word,
    quotient_complex,
    split_differentials,
    symmetrizer_pairs_subgroup,
)
from .hochschild import (
    ComparisonReport,
    DoubleComplex,
    compare_homology,
    enumerate_reduced_monoid,
    factorizable_cup,
    factorizable_double_complex,
    normalized_bar_complex,
    qs_chain_map,
    qs_chain_map_check,
    totalize,
    trivial_monoid_bimodule,
)
from .monoid import FiniteMonoid, cyclic_group, direct_product, monoid_isomorphic, symmetric_group
from .products import (
    Cochain,
    CoeffRing,
    check_hirsch_failure,
    check_homotopy_identity,
    circle_product,
    cochain_diff,
    cup_left_right,
    cup_product,
    quantum_symmetrizer,
    reduced_quantum_symmetrizer,
    shuffle_coproduct,
    shuffle_product,
    shuffle_set,
)
from .zlinalg import (
    AbelianGroupInvariants,
    ChainComplex,
    ChainMap,
    IntMatrix,
    homology,
    homology_all,
    induced_map_on_homology,
    invariant_factors,
    rational_rank,
    smith_normal_form,
    verify_chain_map,
    verify_complex,
)

__version__ = "0.1.0"
