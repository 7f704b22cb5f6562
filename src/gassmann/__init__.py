"""Integral Gassmann triples and their downstream invariants.

Finite permutation groups with exact arithmetic throughout: Gassmann
pair detection and unimodular-intertwiner search, splitting-type
equivalences (arithmetic, Kronecker, weak Kronecker, ultra-coarse),
lattice transport for abelian local models, odd K-groups of rings of
integers, and degree-one homology transfer diagrams.
"""

from .errors import (
    CoprimalityViolated,
    DimensionMismatch,
    EvenIndex,
    GassmannError,
    IndexMismatch,
    InvalidPermutation,
    MixedSigns,
    NonSquare,
    NotASubgroup,
    NotCoprime,
    NotFoundWithinBudget,
    NotNormal,
    NotPrime,
    OrderCapExceeded,
    ParseError,
    PreconditionViolated,
    SingularMatrix,
    UnsupportedSignature,
)
from .permgroup import (
    AbHom,
    Abelianization,
    ConjugacyClass,
    CosetSpace,
    FinAbGroup,
    PermGroup,
    Permutation,
    Subgroup,
    abelianization,
    conjugacy_classes,
    coset_action,
    double_cosets,
    format_group_file,
    generate,
    inclusion_induced,
    normal_core,
    parse_group_file,
    transfer,
)
from .lattice import (
    IntMat,
    LocalNormLattice,
    adjugate,
    det,
    format_matrix_file,
    hnf,
    lattice_index,
    maximal_normal_sublattice,
    parse_matrix_file,
    smith_with_transforms,
    snf,
)
from .triples import (
    CorrespondenceMatrix,
    GassmannTriple,
    are_conjugate,
    integral_search,
    intertwiner_basis,
    is_gassmann,
    permutation_character,
    verify_integral_triple,
)
from .splitting import (
    NumericalSet,
    SplittingType,
    arithmetically_equivalent,
    kronecker_equivalent,
    norm_count,
    numerical_set,
    splitting_table,
    splitting_type,
    ultra_coarse_bound_check,
    ultra_coarse_equivalent,
    weakly_kronecker_equivalent,
)
from .abelext import (
    LocalModel,
    choose_q,
    decomposition_count_check,
    local_splitting_type,
    notwkeq_construct,
    transport_lattice,
)
from .kgroups import (
    FieldModel,
    WInvariant,
    compare_k_groups,
    cyclo_exponent,
    k_group,
    w_invariant,
)
from .homology import (
    CoordSubgroup,
    Correspondence,
    CorrespondingSubgroups,
    conjugation_sweep,
    corresponding_subgroups,
    diagram_check,
    gthm_check,
    h1_isomorphic,
    index_subgroups,
    modq_check,
    modq_legs,
)
from . import catalog

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
