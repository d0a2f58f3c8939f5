"""Matrix-product codes over GF(p^e).

Construct codes that mix constituent linear codes through a defining
matrix, compute their Euclidean/Hermitian/Galois duals in closed form,
decide Galois self-orthogonality and dual-containment from the nonzero
pattern of a small condition matrix, and cross-check every structured
result against an independent brute-force oracle.
"""

from .gf import (
    DEFAULT_MODULI,
    FieldMismatchError,
    FieldSpec,
    field,
    format_element,
    parse_element,
)
from .lincode import (
    DistanceBudget,
    DistanceResult,
    LinearCode,
    UndefinedDistanceError,
)
from .matgf import DimensionError, MatGF, RankDeficientError, SingularMatrixError
from .mpcode import (
    CheckPath,
    CheckReport,
    MPCode,
    RowPartition,
    Verdict,
    Witness,
    check_dual_containing_general,
    check_self_orthogonal,
    dual_full_rank,
    dual_general,
    expand,
    row_partition,
)
from .search import InfeasibleSearchError, SearchHit, SearchRequest, search_mp_codes

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MODULI",
    "CheckPath",
    "CheckReport",
    "DimensionError",
    "DistanceBudget",
    "DistanceResult",
    "FieldMismatchError",
    "FieldSpec",
    "InfeasibleSearchError",
    "LinearCode",
    "MPCode",
    "MatGF",
    "RankDeficientError",
    "RowPartition",
    "SearchHit",
    "SearchRequest",
    "SingularMatrixError",
    "UndefinedDistanceError",
    "Verdict",
    "Witness",
    "check_dual_containing_general",
    "check_self_orthogonal",
    "dual_full_rank",
    "dual_general",
    "expand",
    "field",
    "format_element",
    "parse_element",
    "row_partition",
    "search_mp_codes",
]
