"""metra: a workbench for finite metric and quantitative algebras.

Exact rational arithmetic throughout: distances live in the nonnegative
rationals extended with infinity, algebras are finite metric spaces with
operation tables, and every check returns either an exact value or a
verdict carrying a finite witness.

The pieces:

- ``extmetric``: extended rationals, pseudometric and metric matrices,
  quotients by metric identification, Hausdorff and Gromov-Hausdorff
  distances.
- ``terms``: signatures, terms, and bounded term enumeration.
- ``algebra``: metric algebras, homomorphisms, products, subalgebras,
  quotients, and the quantitative/reflexive-quotient checks.
- ``congruence``: congruential pseudometrics, the congruence lattice
  (meet, join, composition, permutability), product decompositions, and
  congruence generation from constraints.
- ``filters``: finite filters, reduced products, and exact limits of
  stagewise metrics.
- ``logic``: metric equations and implications, satisfaction and
  entailment, free algebras over presentations, compactness and
  equicontinuity checks, and closure suites.
- ``cli``: the ``metra`` command and its workspace file format.
"""

from .algebra import (
    Homomorphism,
    MetricAlgebra,
    generate_subalgebra,
    is_quantitative,
    is_reflexive_quotient,
    kernel,
    product,
    quotient,
    validate_algebra,
)
from .congruence import (
    Congruence,
    are_permutable,
    coarsest_congruence,
    compose,
    decompose_product,
    finest_congruence,
    generate_congruence,
    grid_congruences,
    is_congruential,
    join,
    meet,
)
from .errors import (
    ArityError,
    AxiomError,
    CongruenceError,
    DomainError,
    MetraError,
    OrderError,
    ParseError,
    ResourceLimitError,
    ShapeError,
    SignatureError,
    TableError,
    UnsupportedInputError,
    ValuationError,
    Verdict,
)
from .extmetric import (
    INF,
    ONE,
    ZERO,
    ExtRat,
    FiniteMetricSpace,
    PseudometricMatrix,
    QuotientMap,
    SquareMatrix,
    check_metric,
    check_pseudometric,
    gromov_hausdorff,
    hausdorff_distance,
    metric_identification,
    render_id,
)
from .filters import (
    FiniteFilter,
    SeqForm,
    all_filters,
    parse_seq_form,
    pointwise_limit_metric,
    reduced_product,
)
from .logic import (
    FreeAlgebra,
    MetricEquation,
    MetricImplication,
    MetricInequality,
    Presentation,
    check_soundness_of_free,
    closure_suite,
    entails,
    equicontinuity_check,
    factoring_map,
    free_algebra,
    in_mode_class,
    is_continuous_family,
    parse_equation,
    parse_formula,
    parse_implication,
    parse_inequality,
    satisfies,
    satisfies_inequality,
    soundness_check,
    weak_compactness_search,
)
from .terms import (
    App,
    Signature,
    Term,
    Var,
    check_term,
    enumerate_terms,
    evaluate,
    parse_term,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "App",
    "ArityError",
    "AxiomError",
    "Congruence",
    "CongruenceError",
    "DomainError",
    "ExtRat",
    "FiniteFilter",
    "FiniteMetricSpace",
    "FreeAlgebra",
    "Homomorphism",
    "INF",
    "MetraError",
    "MetricAlgebra",
    "MetricEquation",
    "MetricImplication",
    "MetricInequality",
    "ONE",
    "OrderError",
    "ParseError",
    "Presentation",
    "PseudometricMatrix",
    "QuotientMap",
    "ResourceLimitError",
    "SeqForm",
    "ShapeError",
    "Signature",
    "SignatureError",
    "SquareMatrix",
    "TableError",
    "Term",
    "UnsupportedInputError",
    "ValuationError",
    "Var",
    "Verdict",
    "ZERO",
    "all_filters",
    "are_permutable",
    "check_metric",
    "check_pseudometric",
    "check_soundness_of_free",
    "check_term",
    "closure_suite",
    "coarsest_congruence",
    "compose",
    "decompose_product",
    "entails",
    "enumerate_terms",
    "equicontinuity_check",
    "evaluate",
    "factoring_map",
    "finest_congruence",
    "free_algebra",
    "generate_congruence",
    "generate_subalgebra",
    "grid_congruences",
    "gromov_hausdorff",
    "hausdorff_distance",
    "in_mode_class",
    "is_congruential",
    "is_continuous_family",
    "is_quantitative",
    "is_reflexive_quotient",
    "join",
    "kernel",
    "meet",
    "metric_identification",
    "parse_equation",
    "parse_formula",
    "parse_implication",
    "parse_inequality",
    "parse_seq_form",
    "parse_term",
    "pointwise_limit_metric",
    "product",
    "quotient",
    "reduced_product",
    "render_id",
    "satisfies",
    "satisfies_inequality",
    "soundness_check",
    "substitute",
    "validate_algebra",
    "weak_compactness_search",
]
