"""Exact-arithmetic toolkit for tournament-derived symmetric matrices.

Builds the symmetric zero-diagonal matrices attached to tournaments over
GF(p) or the rationals, computes their exact ranks and determinants, reduces
self-bisecting set families to the same matrix family, and verifies the rank
lower bounds exhaustively at small scale and by reproducible Monte Carlo at
larger scale.
"""

from .fields import (
    GF,
    QQ,
    Field,
    FieldMismatchError,
    NotPrimeError,
    Scalar,
    format_field,
    format_scalar,
    parse_field,
    parse_scalar,
)
from .tournaments import (
    Tournament,
    format_tournament,
    paley,
    parse_tournament,
    random_tournament,
    transitive,
)
from .matrices import (
    DenseMatrix,
    WeightSeq,
    in_matrix_family,
    matrix_from_csv,
    matrix_to_csv,
    ratio_matrix,
    tournament_matrix,
    transitive_matrix,
)
from .rank import RankProfile, determinant, rank
from .families import (
    SetFamily,
    check_bisecting,
    family_to_matrix,
    format_family,
    gram_check,
    incidence_pm1,
    parse_family,
    size_bound_report,
    tau,
)
from .report import Report
from . import bounds, experiments

__version__ = "0.1.0"
