"""schurkit: exact integer arithmetic for Schur polynomials and the ring of
symmetric functions, with brute-force polynomial oracles for every identity.
"""

from ._memo import clear_caches
from .partitions import (
    Partition,
    compositions_of,
    conjugate,
    contains,
    dominates,
    format_partition,
    horizontal_strip_extensions,
    horizontal_strip_reductions,
    horizontal_strips_within,
    normalize,
    parse_composition,
    parse_partition,
    partition_count,
    partitions_of,
    subpartitions,
    term_key,
    vertical_strip_extensions,
)
from .polyval import (
    SparsePoly,
    alternant,
    alternant_pieri_check,
    bialternant_check,
    cauchy_truncated_check,
    eval_e,
    eval_h,
    eval_m,
    eval_s_tableau,
    eval_sym_func,
    h_split_check,
    jacobi_trudi_eval_check,
    product_oracle,
    reduction_check,
    variable_split_check,
)
from .raising import (
    SignedPartition,
    adjacent_swap_identity_check,
    apply_raising,
    jacobi_trudi_expand,
    perm_sign,
    staircase,
    straighten,
)
from .ring import (
    BasisMismatchError,
    SymFunc,
    cauchy_transition_check,
    convert,
    kostka_matrix,
    mirror_identity_check,
    multiply,
    newton_check,
    omega,
    pieri_e,
    pieri_h,
    skew_jacobi_trudi,
    skew_mirror_check,
    skew_schur,
)
from .tableaux import (
    SignedPair,
    Tableau,
    bz_involution,
    enumerate_ssyt,
    is_bad_pair,
    is_lr_tableau,
    kostka,
    lr_coefficient,
    lr_tableaux,
    signed_lr_pairs,
    signed_lr_sum,
)
from .verification import ACCEPTANCE_BOUNDS, SUITES, SuiteResult, run_suite

__version__ = "0.1.0"
