"""Malformed arguments to library entry points raise typed errors with
pinned messages, never a bare ``TypeError``, ``ValueError`` or
``AttributeError``."""

import numpy as np
import pytest

from metra.congruence import finest_congruence, generate_congruence, grid_congruences, join
from metra.errors import DomainError, TableError
from metra.extmetric import FiniteMetricSpace, SquareMatrix, pseudometric_from_scaled
from metra.filters import FiniteFilter, pointwise_limit_metric
from metra.logic import Presentation, free_algebra
from metra.terms import Signature, enumerate_terms

from conftest import line_min_algebra

SIG = Signature({"f": 1})
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
    ],
    ids=["enumerate", "free-terms", "generate", "join", "free-decreases"],
)
def test_caps_must_be_nonnegative_ints(name, call, cap, shown):
    """A cap that is not a nonnegative int (a bool is not one) is refused
    before any work, where a string raised a bare ``TypeError`` and -1, 2.5
    and True were taken as caps."""
    with pytest.raises(DomainError) as err:
        call(cap)
    assert type(err.value) is DomainError
    assert str(err.value) == f"{name} must be a nonnegative int, got {shown}"
