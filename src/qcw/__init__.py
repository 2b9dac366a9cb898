"""qcw: third q-central quotients, low-degree cohomology, Milnor K mod q.

The package computes, at desk scale:

* G^[2, q] and G^[3, q] of finitely presented groups as explicit finite
  groups (``qcentral``), parsed from a small text format (``presentations``);
* their mod-q cohomology in degrees 1 and 2 with cup products and the
  decomposable part of H^2 and the quadratic hull of a pairing (``cohom``);
* Milnor K-theory mod q of small finite, local (tame) and real fields with
  standard Galois models (``milnor``), enabling the degree <= 2 comparison
  of the two sides;
* non-realizability criteria for maximal pro-p Galois groups
  (``realizability``), with Witt/Hall rank support (``lie``).
"""

from .cohom import (
    CohomologySpace,
    GroupCohomology,
    PairingTensor,
    TableHom,
    decomposable_h2,
    h1,
    h2,
    induced_h_maps,
    inflation,
    pairing_gram,
    pairings_equivalent,
    quadratic_hull,
    relator_pairing,
)
from .errors import (
    DimensionMismatchError,
    NotAHomomorphismError,
    ParseError,
    QcwError,
    SizeLimitError,
    UnsupportedFieldError,
)
from .lie import HallBasisEntry, hall_basis, witt_rank
from .milnor import (
    FieldDescriptor,
    SymbolAlgebra,
    galois_model,
    k1,
    k2,
    milnor_pairing_gram,
    parse_field,
    symbol_algebra,
)
from .presentations import (
    Presentation,
    Word,
    free_presentation,
    free_reduce,
    is_trivial_in_free,
    parse_file,
    parse_presentation,
    serialize_presentation,
)
from .qcentral import (
    ClassTwoElement,
    ClassTwoGroup,
    FiniteGroupTable,
    SeriesParams,
    evaluate_word,
    induced_quotient_map,
    is_isomorphic,
    relator_order,
    second_quotient,
    series_step_oracle,
    third_quotient,
    to_table,
    universal_class2,
)
from .realizability import (
    CdDescriptor,
    Verdict,
    WreathSpec,
    h1_vs_cd_check,
    principle_check,
    relators_in_third_series,
    wreath_construct,
)

__version__ = "0.1.0"
