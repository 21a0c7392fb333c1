"""Exact arithmetic for a two-parameter Stirling-type polynomial family.

The family is defined through its exponential generating function
(1-t)**alpha * exp(x*((1-t)**beta - 1)); the package constructs its
coefficient triangle, checks its basis-change / recurrence / operator
identities in exact rational arithmetic, and decides real-rootedness
claims through signed remainder chains.
"""

from .family import (
    FamilyParams,
    addition,
    bell_rows,
    derivative_recurrence_step,
    eval_dobinski,
    family_assoc_lah,
    family_laguerre,
    family_U,
    family_V,
    lah_rebase_report,
    poly,
    rebase,
    rising_expansion,
    to_bell_basis,
    verify_bell_basis_forward,
)
from .operators import (
    ExpMonomialSum,
    verify_bell_operator,
    verify_rodrigues_first,
    verify_rodrigues_second,
)
from .qpoly import QPolynomial, poly_divexact
from .rationals import (
    WireFormatError,
    falling,
    format_rational,
    parse_rational,
    rising,
)
from .series import verify_gf_derivative
from .stirling import (
    CompositionReport,
    composition_report,
    gstirling_egf,
    gstirling_explicit,
    gstirling_inverse,
    gstirling_table,
    lah,
    partial_r_bell_rows,
    rlah,
    stirling1,
    stirling2,
    verify_rbell_connection,
)
from .zeros import (
    RegionReport,
    all_roots_real,
    check_newton_logconcave,
    classify_region,
    isolate_roots,
    region_report,
    square_free_part,
    sturm_chain,
)

__version__ = "0.1.0"
