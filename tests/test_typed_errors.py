"""Malformed arguments to library entry points raise typed errors with
pinned messages, never a bare ``TypeError``, ``ValueError`` or
``AttributeError``."""

import numpy as np
import pytest

from metra.algebra import (
    MetricAlgebra,
    is_quantitative,
    is_reflexive_quotient,
    product,
    quotient,
)
from metra.congruence import finest_congruence, generate_congruence, grid_congruences, join
from metra.errors import DomainError, SignatureError, TableError
from metra.extmetric import (
    FiniteMetricSpace,
    SquareMatrix,
    gromov_hausdorff,
    pseudometric_from_scaled,
)
from metra.filters import FiniteFilter, pointwise_limit_metric, reduced_product
from metra.logic import (
    Presentation,
    closure_suite,
    entails,
    equicontinuity_check,
    free_algebra,
    in_mode_class,
    parse_equation,
    parse_formula,
    parse_inequality,
    satisfies,
    satisfies_inequality,
    weak_compactness_search,
)
from metra.terms import Signature, enumerate_terms

from conftest import line_min_algebra, space_from

SIG = Signature({"f": 1})
F_TABLE = {"f": {(0,): 1, (1,): 0}}
F_SWAP = MetricAlgebra(SIG, space_from((0, 1), lambda x, y: abs(x - y)), F_TABLE)
UNHASHABLE_ID = "carrier element ids must be hashable (unhashable type: 'list')"
UNHASHABLE_INDEX = "index ids must be hashable (unhashable type: 'list')"


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: FiniteMetricSpace([[0], [1]], [[0, 1], [1, 0]]),
                     DomainError, UNHASHABLE_ID, id="space-list-ids"),
        pytest.param(lambda: SquareMatrix([[0], 1], [[0, 1], [1, 0]]),
                     DomainError, UNHASHABLE_ID, id="matrix-list-id"),
        pytest.param(lambda: pseudometric_from_scaled([[0], 1], np.zeros((2, 2), int), 1),
                     DomainError, UNHASHABLE_ID, id="scaled-list-id"),
        pytest.param(lambda: FiniteFilter([1, 2], [[1]]),
                     DomainError, UNHASHABLE_INDEX, id="filter-list-core"),
        pytest.param(lambda: FiniteFilter([[1], 2], [2]),
                     DomainError, UNHASHABLE_INDEX, id="filter-list-index"),
        pytest.param(lambda: generate_congruence((0, 1), {"f": [1]}, []),
                     TableError, "bad operation table: not-a-mapping at ('f',)",
                     id="generate-table-list"),
        pytest.param(lambda: generate_congruence((0, 1), [], []),
                     TableError, "bad operation table: not-a-mapping at ()",
                     id="generate-ops-list"),
        pytest.param(lambda: generate_congruence((0, 1), {}, [(0,)]),
                     DomainError, "constraint (0,) is not an (x, y, bound) triple",
                     id="generate-short-constraint"),
        pytest.param(lambda: generate_congruence((0, 1), {}, [([0], 1, 1)]),
                     DomainError, "constraint mentions [0] or 1 outside the carrier",
                     id="generate-list-point"),
        pytest.param(lambda: generate_congruence([[0]], {}, []),
                     DomainError, UNHASHABLE_ID, id="generate-list-carrier-id"),
        pytest.param(lambda: generate_congruence((0, 1), {"f": {(0,): [1], (1,): 0}}, []),
                     DomainError, "table value [1] outside carrier",
                     id="generate-list-table-value"),
        pytest.param(lambda: generate_congruence((0, 1), {"f": {0: 1}}, []),
                     TableError, "bad operation table: bad-arguments at ('f', 0)",
                     id="generate-falsy-bare-key"),
        pytest.param(lambda: generate_congruence((0, 1), {"f": {1: 0}}, []),
                     TableError, "bad operation table: bad-arguments at ('f', 1)",
                     id="generate-bare-key"),
        pytest.param(lambda: grid_congruences(line_min_algebra(), values=["x"]),
                     DomainError, "grid value must be a nonnegative rational or inf, got 'x'",
                     id="grid-value"),
        pytest.param(lambda: pointwise_limit_metric([0, 1], {(0, 1): 3}),
                     DomainError,
                     "the sequence for the pair (0, 1) must be a SeqForm or a string, got 3",
                     id="limit-form"),
        pytest.param(lambda: Presentation(SIG, ["x"], [], depth="2"),
                     DomainError, "depth must be a nonnegative int, got '2'",
                     id="presentation-depth-str"),
        pytest.param(lambda: Presentation(SIG, ["x"], [], depth=1.5),
                     DomainError, "depth must be a nonnegative int, got 1.5",
                     id="presentation-depth-float"),
        pytest.param(lambda: Presentation(SIG, ["x"], [], mode="LIP", lipschitz=0),
                     DomainError, "Lipschitz constant for f must be positive",
                     id="presentation-lipschitz-zero"),
        pytest.param(lambda: Presentation(SIG, ["x"], [], mode="LIP", lipschitz={"f": -1}),
                     DomainError, "Lipschitz constant for f must be positive",
                     id="presentation-lipschitz-negative"),
        # A mode and its constants are checked in one place, with one
        # message each, wherever they are given.
        pytest.param(lambda: Presentation(SIG, ["x"], [], mode="LIP", lipschitz={"g": 1}),
                     SignatureError, "LIP mode needs a constant for f",
                     id="presentation-constant-missing"),
        pytest.param(lambda: join([finest_congruence(F_SWAP)], mode="LIP", lipschitz={"g": 1}),
                     SignatureError, "LIP mode needs a constant for f", id="join-constant-missing"),
        pytest.param(lambda: generate_congruence((0, 1), F_TABLE, [], "LIP", {"g": 1}),
                     SignatureError, "LIP mode needs a constant for f",
                     id="generate-constant-missing"),
        pytest.param(lambda: in_mode_class(F_SWAP, "LIP", {"g": 1}),
                     SignatureError, "LIP mode needs a constant for f",
                     id="mode-class-constant-missing"),
        pytest.param(lambda: join([finest_congruence(F_SWAP)], mode="LIP"),
                     DomainError, "LIP mode needs a Lipschitz constant", id="join-no-constant"),
        pytest.param(lambda: generate_congruence((0, 1), F_TABLE, [], "LIP"),
                     DomainError, "LIP mode needs a Lipschitz constant", id="generate-no-constant"),
        pytest.param(lambda: in_mode_class(F_SWAP, "LIP"),
                     DomainError, "LIP mode needs a Lipschitz constant",
                     id="mode-class-no-constant"),
        pytest.param(lambda: join([finest_congruence(F_SWAP)], mode="Z"),
                     DomainError, "unknown mode 'Z'; expected M, Q, or LIP", id="join-mode"),
        pytest.param(lambda: generate_congruence((0, 1), F_TABLE, [], "Z"),
                     DomainError, "unknown mode 'Z'; expected M, Q, or LIP", id="generate-mode"),
        pytest.param(lambda: in_mode_class(F_SWAP, "Z"),
                     DomainError, "unknown mode 'Z'; expected M, Q, or LIP", id="mode-class-mode"),
        pytest.param(lambda: enumerate_terms(SIG, ["x"], "1"),
                     DomainError, "depth must be a nonnegative int, got '1'",
                     id="enumerate-depth-str"),
        pytest.param(lambda: enumerate_terms(SIG, ["x"], 1.5),
                     DomainError, "depth must be a nonnegative int, got 1.5",
                     id="enumerate-depth-float"),
        pytest.param(lambda: enumerate_terms(SIG, ["x"], True),
                     DomainError, "depth must be a nonnegative int, got True",
                     id="enumerate-depth-bool"),
    ],
)
def test_malformed_arguments_raise_typed_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message



CAPS = [("3", "'3'"), (-1, "-1"), (2.5, "2.5"), (True, "True")]
LINE = line_min_algebra()
EQUATION = parse_equation("x =[2] y")


@pytest.mark.parametrize("cap, shown", CAPS, ids=["str", "negative", "float", "bool"])
@pytest.mark.parametrize(
    "name, call",
    [
        ("max_terms", lambda cap: enumerate_terms(SIG, ["x"], 2, cap)),
        ("max_terms", lambda cap: free_algebra(Presentation(SIG, ["x"], []), max_terms=cap)),
        ("max_decreases", lambda cap: generate_congruence((0, 1), {}, [], max_decreases=cap)),
        ("max_decreases",
         lambda cap: join([finest_congruence(line_min_algebra())], max_decreases=cap)),
        ("max_decreases",
         lambda cap: free_algebra(Presentation(SIG, ["x"], []), max_decreases=cap)),
        ("max_cells", lambda cap: gromov_hausdorff(LINE.space, LINE.space, max_cells=cap)),
        ("max_size", lambda cap: product([LINE, LINE], max_size=cap)),
        ("max_size", lambda cap: reduced_product([LINE], FiniteFilter([0], [0]), max_size=cap)),
        ("max_valuations", lambda cap: satisfies(LINE, EQUATION, cap)),
        ("max_valuations", lambda cap: entails([LINE], [], EQUATION, cap)),
        ("max_valuations",
         lambda cap: satisfies_inequality(LINE, parse_inequality("d(x, y) - 2 <= 0"), cap)),
        ("max_valuations", lambda cap: weak_compactness_search([LINE], [], EQUATION, 2, cap)),
        ("max_valuations",
         lambda cap: equicontinuity_check([LINE], parse_formula("x =[1] y |- x =[1] y"), 2, [1],
                                          cap)),
        ("max_valuations", lambda cap: closure_suite([EQUATION], [LINE], max_valuations=cap)),
        ("grid_cap", lambda cap: grid_congruences(LINE, cap=cap)),
        ("max_checks", lambda cap: is_quantitative(LINE, max_checks=cap)),
        ("max_sections",
         lambda cap: is_reflexive_quotient(quotient(LINE, finest_congruence(LINE))[1],
                                           max_sections=cap)),
        ("max_product_size", lambda cap: closure_suite([], [], max_product_size=cap)),
    ],
    ids=["enumerate", "free-terms", "generate", "join", "free-decreases", "gh", "product",
         "reduced-product", "satisfies", "entails", "inequality", "weak-compactness",
         "equicontinuity", "closure-suite", "grid", "quantitative", "sections",
         "closure-product-size"],
)
def test_caps_must_be_nonnegative_ints(name, call, cap, shown):
    """A cap that is not a nonnegative int (a bool is not one) is refused
    where it is compared, where a string raised a bare ``TypeError`` and -1,
    2.5 and True were taken as caps."""
    with pytest.raises(DomainError) as err:
        call(cap)
    assert type(err.value) is DomainError
    assert str(err.value) == f"{name} must be a nonnegative int, got {shown}"
