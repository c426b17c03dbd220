"""Exact certificates of complex multiplication for Jacobians of
quasiplatonic Riemann surfaces.

The pipeline: finite permutation groups -> exact character tables ->
surfaces given by generating vectors (genus, quotients, analytic
character) -> CM verdicts (symmetric-square test and quotient-decomposition
certificates).
"""

from .chartable import (
    Character,
    CharacterTable,
    character_table,
    fixed_space_dimension,
    inner_product,
    power_class_map,
    regular_character,
    symmetric_square,
    trivial_character,
)
from .criteria import (
    CM_CERTIFIED,
    INCONCLUSIVE,
    CMVerdict,
    FactorCertificate,
    IsogenyRelation,
    RelationReport,
    check_statement_a,
    check_statement_b,
    cm_verdict,
    h1_multiplicities,
    reverify_verdict,
    streit_test,
    verify_isogeny_relation,
)
from .cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi
from .errors import (
    CmkitError,
    ElementNotInGroup,
    GenusZeroQuotient,
    GroupMismatch,
    GroupTooLarge,
    InconsistentRamification,
    InternalCheckFailed,
    InvalidCharacterTable,
    InvalidParameter,
    InvalidPermutation,
    NegativeGenus,
    NonIntegerGenus,
    NonIntegralMultiplicity,
    NonIntegralResult,
    NotNormal,
    NotNormalInN,
    NotProperNontrivial,
    SubgroupMismatch,
)
from .gmfamily import GmInstance, build_gm, canonical_vector, known_subgroup_collection
from .group import ConjugacyClass, FiniteGroup, Subgroup
from .perm import Permutation
from .surface import (
    GeneratingVector,
    QuasiplatonicSurface,
    QuotientSurface,
    Signature,
    analytic_character,
    chevalley_weil_multiplicities,
    find_generating_vectors,
    galois_quotient_signature,
    genus_from_branch_data,
    genus_from_vector,
    quotient_surface,
)

__version__ = "0.1.0"
