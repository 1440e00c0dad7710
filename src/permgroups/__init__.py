"""Exact computations on finite permutation groups: subgroup lattices, chief
series, classes of groups, hypercenters, and maximal-subgroup intersections.
"""

from .errors import (
    GroupTheoryError,
    InputError,
    PreconditionError,
    ResourceLimitError,
    VerificationError,
)
from .limits import DEFAULT as DEFAULT_LIMITS, Limits, scope as limits_scope
from .perms import Permutation, format_permutation, parse_permutation
from .groups import (
    PermGroup,
    Quotient,
    Subgroup,
    center,
    centralizer,
    commutator_subgroup,
    direct_product,
    join_subgroups,
    normal_closure,
    quotient_group,
    subgroup_from_elements,
    upper_central_series,
)
from .named import (
    alternating,
    cyclic,
    dihedral,
    elementary_abelian,
    quaternion8,
    special_linear2,
    symmetric,
)
from .lattice import SubgroupLattice, all_subgroups, nilpotent_subgroups
from .chiefs import (
    ChiefFactor,
    ChiefSeries,
    chief_series,
    factor_semidirect,
    inner_induction_subgroup,
    minimal_normal_subgroups,
)
from .classes import (
    ABELIAN,
    ALL_GROUPS,
    GroupClass,
    NCA,
    NILPOTENT,
    QUASINILPOTENT,
    class_by_name,
    is_class_central,
    is_class_central_local,
    is_class_central_semidirect,
    is_nca_member,
    is_nilpotent,
    is_quasi_F,
    is_quasinilpotent,
    p_groups,
    quasi_class,
)
from .hypercenter import (
    HypercenterResult,
    VerificationReport,
    compare_nca,
    hypercenter,
    inner_induction_hypercenter,
    intersection_of_class_maximal,
    semidirect_hypercenter,
    verify_baer,
    verify_remark4,
    verify_theorem1,
)
from .corpus import builtin_corpus, extended_corpus, smoke_corpus, standard_corpus

__version__ = "0.1.0"
