"""Tests for exact distances, metric axioms, and metric-space operations."""

import contextlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metra.extmetric as extmetric_module
from metra.errors import (
    ArityError,
    AxiomError,
    DomainError,
    ResourceLimitError,
    UnsupportedInputError,
)
from metra.extmetric import (
    INF,
    ONE,
    ZERO,
    ExtRat,
    FiniteMetricSpace,
    PseudometricMatrix,
    QuotientMap,
    SquareMatrix,
    _array_violation,
    _as_object,
    _as_verdict,
    _scale_finite,
    _scaled,
    check_metric,
    check_pseudometric,
    gromov_hausdorff,
    hausdorff_distance,
    metric_identification,
    pseudometric_from_scaled,
    restrict_space,
    scaled_int_array,
    sup_product,
)

from conftest import (
    LABELS,
    POSITIVE_POOL,
    brute_force_gh,
    diameter,
    fw_close,
    is_isometric_embedding,
    is_nonexpansive_map,
    metric_spaces,
    object_mirrors,
    point_set_distance,
    pseudometric_spaces,
    reference_gromov_hausdorff,
    reference_identification,
    reference_sup,
    reference_text_rows,
    reference_violation,
    revalidated,
    space_from,
)

BOTH_MIRRORS = (contextlib.nullcontext, object_mirrors)
MIRROR_POOL = [ZERO, ONE, ExtRat(Fraction(1, 3)), ExtRat(1 << 60), ExtRat(10**400), INF]

rationals = st.fractions(min_value=0, max_value=5, max_denominator=12)


def line_space(points):
    return space_from(points, lambda x, y: abs(Fraction(x) - Fraction(y)))


class TestExtRat:
    """Arithmetic on nonnegative rationals extended with infinity."""

    @given(rationals)
    def test_parse_round_trip(self, q):
        v = ExtRat(q)
        assert ExtRat.parse(str(v)) == v

    def test_parse_infinity_and_integers(self):
        assert ExtRat.parse("inf").is_infinite
        assert ExtRat.parse("7") == ExtRat(7)
        assert ExtRat.parse("3/2") == ExtRat(Fraction(3, 2))
        assert str(ExtRat(Fraction(4, 2))) == "2"

    def test_rejects_negative_and_garbage(self):
        with pytest.raises(ValueError):
            ExtRat(Fraction(-1, 2))
        with pytest.raises(ValueError):
            ExtRat.parse("1/0")
        with pytest.raises(ValueError):
            ExtRat.parse("one")

    @given(rationals, rationals)
    def test_addition_matches_fraction_addition(self, a, b):
        assert ExtRat(a) + ExtRat(b) == ExtRat(a + b)

    @given(rationals)
    def test_infinity_absorbs_addition_and_tops_order(self, q):
        v = ExtRat(q)
        assert (v + INF).is_infinite
        assert (INF + v).is_infinite
        assert v < INF
        assert not INF < INF
        assert max(v, INF) == INF

    @given(rationals, rationals)
    def test_order_agrees_with_fractions(self, a, b):
        assert (ExtRat(a) < ExtRat(b)) == (a < b)

    def test_scale(self):
        assert ExtRat(3).scale(Fraction(1, 2)) == ExtRat(Fraction(3, 2))
        assert INF.scale(2).is_infinite
        with pytest.raises(ValueError):
            ExtRat(1).scale(0)

    def test_finite_accessor_guards_infinity(self):
        assert ExtRat(Fraction(5, 3)).finite == Fraction(5, 3)
        with pytest.raises(UnsupportedInputError):
            INF.finite

    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_hash_consistent_with_equality(self, qs):
        values = [ExtRat(q) for q in qs] + [INF]
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b)

    def test_infinity_hash_is_the_same_in_every_process(self):
        # Two interpreters with one PYTHONHASHSEED must agree on every
        # hash, so that set orders and the work done on them repeat.
        package_root = os.path.dirname(os.path.dirname(extmetric_module.__file__))
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=package_root)
        code = "from metra.extmetric import INF, ExtRat; print(hash(INF), hash(ExtRat('inf')))"
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True,
                check=True,
            ).stdout
            for _ in range(2)
        }
        assert len(outputs) == 1
        first, second = outputs.pop().split()
        assert first == second


class TestShapes:
    def test_empty_carrier_rejected(self):
        with pytest.raises(DomainError):
            SquareMatrix([], [])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DomainError):
            SquareMatrix(["a", "a"], [[ZERO, ONE], [ONE, ZERO]])

    def test_non_square_rejected(self):
        with pytest.raises(Exception) as exc:
            SquareMatrix(["a", "b"], [[ZERO, ONE]])
        assert "2x2" in str(exc.value)

    def test_extrat_entries_are_kept_and_others_converted(self):
        half = ExtRat(Fraction(1, 2))
        m = SquareMatrix(["a", "b"], [[0, half], [half, "0"]])
        assert m.entries[0][1] is half and m.entries[1][0] is half
        assert m.entries[0][0] == m.entries[1][1] == ZERO
        with pytest.raises(ValueError):
            SquareMatrix(["a"], [[-1]])


class TestMirror:
    """A matrix stores only its scaled mirror and reads its entries back."""

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(data=st.data())
    def test_round_trip(self, mirrors, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        pool = st.sampled_from(MIRROR_POOL)
        rows = [[data.draw(pool) for _ in range(n)] for _ in range(n)]
        carrier = "abcd"[:n]
        with mirrors():
            m = SquareMatrix(carrier, rows)
            fresh = SquareMatrix(carrier, [[ExtRat(str(v)) for v in row] for row in rows])
        built_outside = SquareMatrix(carrier, rows)
        assert m.entries == tuple(map(tuple, rows))
        for (i, x), (j, y) in itertools.product(enumerate(carrier), repeat=2):
            assert m.get(x, y) == m.at(i, j) == rows[i][j]
        assert m.text_rows() == [[str(v) for v in row] for row in rows]
        assert m == fresh == built_outside
        assert hash(m) == hash(fresh) == hash(built_outside)
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] = data.draw(pool.filter(lambda v: v != rows[i][j]))
        with mirrors():
            assert SquareMatrix(carrier, rows) != m

    @pytest.mark.differential
    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(data=st.data())
    def test_text_rows_match_the_reference(self, mirrors, data):
        """Texts worked out on the integer codes read as the ``ExtRat`` of
        each cell does: infinities, codes that share factors with the
        denominator, and Python-int codes past the int64 guard."""
        n = data.draw(st.integers(min_value=1, max_value=4))
        denom = data.draw(st.sampled_from([1, 2, 6, 12, 35, 3 << 46]))
        code = st.one_of(
            st.integers(0, 40), st.integers(1 << 45, 1 << 50), st.just(None)
        )
        rows = [
            [INF if c is None else ExtRat(Fraction(c, denom)) for c in row]
            for row in data.draw(st.lists(
                st.lists(code, min_size=n, max_size=n), min_size=n, max_size=n
            ))
        ]
        with mirrors():
            m = SquareMatrix("abcd"[:n], rows)
            # Codes to values through Fraction, with no caller's objects kept.
            trusted = SquareMatrix._trusted(m.carrier, np.array(m.D), m.denom)
        assert m.text_rows() == reference_text_rows(m) == [[str(v) for v in row] for row in rows]
        assert trusted.text_rows() == reference_text_rows(trusted) == m.text_rows()

    @pytest.mark.differential
    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(space=pseudometric_spaces(), factor=st.sampled_from([1, 2, 6, 1 << 50, 1 << 70]))
    def test_results_are_stored_in_canonical_form(self, mirrors, space, factor):
        """A mirror over a multiple of the least denominator, on Python ints
        or past the int64 guard, is reduced and narrowed when it is wrapped;
        so is the int64 mirror scaled by ``_scaled``, which widens it only
        when it must, and an int64 mirror of zeros over any denominator."""
        wide = _scale_finite(np.array(_as_object(space.D)), factor)
        (scaled,) = _scaled((space.D, factor))
        zeros = np.zeros(space.D.shape, dtype=np.int64)
        with mirrors():
            m = PseudometricMatrix._trusted(space.carrier, wide, space.denom * factor)
            s = PseudometricMatrix._trusted(space.carrier, scaled, space.denom * factor)
            z = PseudometricMatrix._trusted(space.carrier, zeros, space.denom * factor)
            again = revalidated(space)
            flat = PseudometricMatrix(space.carrier, [[ZERO] * space.size] * space.size)
        assert m == s == space and m.entries == s.entries == space.entries
        assert (m.denom, m.D.dtype) == (s.denom, s.D.dtype) == (again.denom, again.D.dtype)
        assert z == flat and z.entries == flat.entries
        assert (z.denom, z.D.dtype) == (flat.denom, flat.D.dtype) and z.denom == 1


class TestPseudometricChecks:
    """check_pseudometric reports the first violated axiom with a witness."""

    def test_triangle_violation_witness(self):
        rows = [
            [ZERO, ONE, ExtRat(5)],
            [ONE, ZERO, ONE],
            [ExtRat(5), ONE, ZERO],
        ]
        verdict = check_pseudometric(SquareMatrix("abc", rows))
        assert not verdict
        assert verdict.reason == "triangle"
        assert verdict.witness == ("a", "b", "c")

    def test_reflexivity_witness(self):
        rows = [[ZERO, ONE], [ONE, ONE]]
        verdict = check_pseudometric(SquareMatrix("ab", rows))
        assert verdict.reason == "reflexivity"
        assert verdict.witness == ("b",)

    def test_symmetry_witness(self):
        rows = [[ZERO, ONE], [ExtRat(2), ZERO]]
        verdict = check_pseudometric(SquareMatrix("ab", rows))
        assert verdict.reason == "symmetry"
        assert verdict.witness == ("a", "b")

    @pytest.mark.parametrize(
        "arr, reason",
        [
            ([[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 1, 1], [3, 2, 1, 0]], "reflexivity"),
            ([[0, 1, 2, 3], [1, 0, 1, 2], [2, 3, 0, 1], [3, 2, 1, 0]], "symmetry"),
            ([[0, 1, 2, 9], [1, 0, 1, 2], [2, 1, 0, 1], [9, 2, 1, 0]], "triangle"),
        ],
    )
    def test_scaled_array_check_matches_the_entry_check(self, arr, reason):
        arr = np.array(arr, dtype=np.int64)
        rows = [[ExtRat(Fraction(int(v), 4)) for v in row] for row in arr]
        expected = check_pseudometric(SquareMatrix("abcd", rows))
        assert expected.reason == reason
        with pytest.raises(AxiomError) as err:
            pseudometric_from_scaled("abcd", arr, 4)
        assert err.value.verdict == expected
        assert str(err.value).startswith(f"not a pseudometric: {reason} fails at")

    def test_finite_entry_at_the_infinity_sentinel_stays_finite(self):
        # 2**60 is the int64 mirror's infinity code; a finite entry of that
        # size must widen the mirror to Python ints, not read as infinity.
        big = ExtRat(1 << 60)
        rows = [
            [ZERO, big, INF, INF],
            [INF, ZERO, INF, INF],
            [INF, INF, ZERO, INF],
            [INF, INF, INF, ZERO],
        ]
        arr, denom = scaled_int_array(rows)
        assert arr.dtype == object and denom == 1
        assert arr[0, 1] == 1 << 60 and arr[1, 0] is extmetric_module._OBJ_INF
        verdict = check_pseudometric(SquareMatrix("abcd", rows))
        assert verdict == _as_verdict(reference_violation(rows, 4), tuple("abcd"))
        assert verdict.reason == "symmetry"
        assert verdict.witness == ("a", "b")

    @given(
        n=st.integers(min_value=1, max_value=6),
        reflexive=st.booleans(),
        symmetric=st.booleans(),
        data=st.data(),
    )
    def test_array_check_matches_the_entry_scan(self, n, reflexive, symmetric, data):
        """Same first violation on the int64 or Python-int mirror as on the
        entries, for values that fit int64 and values that do not."""
        pool = st.sampled_from(
            [ZERO, ONE, INF, ExtRat(Fraction(1, 3)), ExtRat(2), ExtRat(1 << 60), ExtRat(10**400)]
        )
        rows = [[data.draw(pool) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            if reflexive:
                rows[i][i] = ZERO
            for j in range(i + 1, n):
                if symmetric:
                    rows[j][i] = rows[i][j]
        arr, _ = scaled_int_array(rows)
        assert _array_violation(arr) == reference_violation(rows, n)

    @pytest.mark.parametrize("scale", [1, 10**400], ids=["int64", "object"])
    def test_triangle_witness_on_forty_points_matches_the_entry_scan(self, scale):
        """Two 20-point lines at infinite distance, one entry raised in the
        second: the same first witness as the entry scan, on the int64 and
        on the Python-int mirror."""
        n = 40
        rows = [
            [ExtRat(abs(i - j) * scale) if (i < 20) == (j < 20) else INF for j in range(n)]
            for i in range(n)
        ]
        rows[25][35] = rows[35][25] = ExtRat(100 * scale)
        arr, _ = scaled_int_array(rows)
        assert (arr.dtype == object) == (scale > 1)
        assert _array_violation(arr) == reference_violation(rows, n) == ("triangle", (25, 20, 35))

    def test_scaled_array_reads_back_exact_entries(self):
        big = 1 << 60
        arr = np.array(
            [[0, 2, big, big], [2, 0, big, big], [big, big, 0, 3], [big, big, 3, 0]],
            dtype=np.int64,
        )
        half, three_quarters = ExtRat(Fraction(1, 2)), ExtRat(Fraction(3, 4))
        rows = [
            [ZERO, half, INF, INF],
            [half, ZERO, INF, INF],
            [INF, INF, ZERO, three_quarters],
            [INF, INF, three_quarters, ZERO],
        ]
        assert pseudometric_from_scaled("abcd", arr, 4) == PseudometricMatrix("abcd", rows)

    def test_infinite_entries_are_fine(self):
        rows = [[ZERO, INF], [INF, ZERO]]
        assert check_pseudometric(SquareMatrix("ab", rows)).ok

    def test_large_carrier_uses_the_same_semantics(self):
        # 25 points exercises the vectorized triangle scan.
        points = list(range(25))
        space = line_space(points)
        assert check_pseudometric(space).ok

        rows = [list(r) for r in space.entries]
        rows[0][10] = ExtRat(100)
        rows[10][0] = ExtRat(100)
        verdict = check_pseudometric(SquareMatrix(points, rows))
        assert verdict.reason == "triangle"
        assert verdict.witness == (0, 1, 10)

    @given(pseudometric_spaces())
    def test_closed_random_matrices_validate(self, space):
        assert check_pseudometric(space).ok

    def test_metric_adds_separation(self):
        rows = [[ZERO, ZERO], [ZERO, ZERO]]
        verdict = check_metric(SquareMatrix("ab", rows))
        assert verdict.reason == "separation"
        assert verdict.witness == ("a", "b")
        with pytest.raises(AxiomError):
            FiniteMetricSpace("ab", rows)


class TestMetricIdentification:
    def test_collapses_zero_pairs(self):
        rows = [
            [ZERO, ZERO, ExtRat(2)],
            [ZERO, ZERO, ExtRat(2)],
            [ExtRat(2), ExtRat(2), ZERO],
        ]
        space, qmap = metric_identification(PseudometricMatrix("abc", rows))
        assert space.carrier == ("a", "c")
        assert qmap.class_of("b") == "a"
        assert qmap.class_ids == ("a", "c")
        assert space.get("a", "c") == ExtRat(2)

    @given(metric_spaces())
    def test_identity_on_metric_spaces(self, space):
        out, qmap = metric_identification(space)
        assert out.carrier == space.carrier
        assert out.entries == space.entries
        assert all(qmap.class_of(x) == x for x in space.carrier)

    @given(pseudometric_spaces(allow_inf=True))
    def test_quotient_distances_are_well_defined(self, space):
        out, qmap = metric_identification(space)
        for x in space.carrier:
            for y in space.carrier:
                assert out.get(qmap.class_of(x), qmap.class_of(y)) == space.get(x, y)
        for c in qmap.class_ids:
            assert qmap.class_of(c) == c

    @pytest.mark.parametrize(
        "carrier, classes, message",
        [
            ("ab", {"a": "z", "b": "z"}, "class id z is not the earliest member"),
            ("abc", {"a": "b", "b": "b", "c": "c"}, "class id b is not the earliest member"),
            ("abc", {"a": "a", "b": "a", "c": "b"}, "class id b is not the earliest member"),
            ("abc", {"a": "a", "b": "a"}, "classes and the source carrier differ at c"),
            ("ab", {"a": "a", "b": "a", "z": "a"}, "classes and the source carrier differ at z"),
        ],
    )
    def test_class_ids_must_be_their_earliest_members(self, carrier, classes, message):
        with pytest.raises(DomainError, match=message):
            QuotientMap(carrier, classes)

    def test_a_map_onto_earliest_members_builds(self):
        qmap = QuotientMap("abcd", {"a": "a", "b": "a", "c": "c", "d": "a"})
        assert qmap.class_ids == ("a", "c")
        assert qmap.rep.tolist() == [0, 0, 2, 0]
        assert qmap.rep.dtype == np.intp and not qmap.rep.flags.writeable


class TestKernelsMatchTheEntries:
    """Array kernels against the same results read off ``ExtRat`` entries."""

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(space=pseudometric_spaces(max_size=5))
    def test_metric_identification(self, mirrors, space):
        carrier, rows, classes = reference_identification(space)
        with mirrors():
            out, qmap = metric_identification(revalidated(space))
        assert out.carrier == carrier
        assert out.entries == tuple(map(tuple, rows))
        assert {x: qmap.class_of(x) for x in space.carrier} == classes
        assert qmap == QuotientMap(space.carrier, classes)
        assert qmap.class_ids == out.carrier

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(space=metric_spaces(max_size=5, allow_inf=True), big=st.booleans())
    def test_identification_without_zero_pairs_shares_the_mirror(self, mirrors, space, big):
        """With no two points at distance zero, the space shares the
        pseudometric's mirror and equals the one the gathered path builds."""
        rows = [[v.scale(1 << 60) if big else v for v in row] for row in space.entries]
        with mirrors():
            p = PseudometricMatrix(space.carrier, rows)
            out, qmap = metric_identification(p)
            everyone = np.arange(p.size)
            gathered = FiniteMetricSpace._trusted(
                p.carrier, p.D[np.ix_(everyone, everyone)], p.denom
            )
        assert type(out) is FiniteMetricSpace and out.D is p.D
        assert out.carrier == gathered.carrier
        assert out.D.dtype == gathered.D.dtype
        assert np.array_equal(out.D, gathered.D) and out.denom == gathered.denom
        assert out.entries == gathered.entries == tuple(map(tuple, rows))
        assert qmap == QuotientMap(p.carrier, {x: x for x in p.carrier})

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(spaces=st.lists(metric_spaces(max_size=3, allow_inf=True), min_size=1, max_size=3))
    def test_sup_product(self, mirrors, spaces):
        with mirrors():
            prod = sup_product([revalidated(s) for s in spaces])
        assert prod.entries == tuple(map(tuple, reference_sup(spaces)))


class TestSupProduct:
    def test_two_point_example(self):
        two = space_from([0, 1], lambda x, y: abs(x - y))
        prod = sup_product([two, two])
        assert prod.get((0, 0), (1, 1)) == ONE
        assert prod.get((0, 0), (0, 1)) == ONE
        assert prod.carrier == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_empty_product_rejected(self):
        with pytest.raises(ArityError):
            sup_product([])

    def test_size_cap(self):
        two = space_from([0, 1], lambda x, y: abs(x - y))
        with pytest.raises(ResourceLimitError):
            sup_product([two] * 3, max_size=7)

    def test_size_cap_is_named_by_its_limits_key(self):
        two = space_from([0, 1], lambda x, y: abs(x - y))
        with pytest.raises(ResourceLimitError) as caught:
            sup_product([two] * 3, max_size=7)
        assert (caught.value.limit_name, caught.value.limit_value) == ("max_size", 7)

    @given(metric_spaces(max_size=3), metric_spaces(max_size=3), st.sampled_from(
        [ExtRat(0), ExtRat(Fraction(1, 2)), ExtRat(1), ExtRat(2)]
    ))
    def test_relational_law(self, s1, s2, eps):
        prod = sup_product([s1, s2])
        for p in prod.carrier:
            for q in prod.carrier:
                coordwise = s1.get(p[0], q[0]) <= eps and s2.get(p[1], q[1]) <= eps
                assert (prod.get(p, q) <= eps) == coordwise


class TestHausdorff:
    def test_line_examples(self):
        space = line_space([0, 1, 3])
        assert point_set_distance(space, 3, [0, 1]) == ExtRat(2)
        assert hausdorff_distance(space, [0, 1], [3]) == ExtRat(3)
        assert hausdorff_distance(space, [0, 1, 3], [0, 1, 3]) == ZERO
        # The block reductions run on a Python-int mirror and its infinity too.
        with object_mirrors():
            wide = FiniteMetricSpace([0, 1, 2], [[0, 1, "inf"], [1, 0, "inf"], ["inf", "inf", 0]])
        assert wide.D.dtype == object
        assert hausdorff_distance(wide, [0], [1]) == ONE
        assert hausdorff_distance(wide, [0, 1], [2]) == INF

    def test_empty_subsets_rejected(self):
        space = line_space([0, 1])
        with pytest.raises(DomainError):
            point_set_distance(space, 0, [])
        with pytest.raises(DomainError):
            hausdorff_distance(space, [], [0])

    def test_elements_outside_the_carrier_rejected(self):
        space = line_space([0, 1])
        with pytest.raises(DomainError, match="element 7 is not in the carrier"):
            hausdorff_distance(space, [0, 7], [1])
        with pytest.raises(DomainError, match="element 7 is not in the carrier"):
            hausdorff_distance(space, [0], [1, 7])

    @given(metric_spaces(max_size=4))
    @settings(max_examples=40)
    def test_hausdorff_is_a_metric_on_subsets(self, space):
        subsets = [
            list(c)
            for r in range(1, space.size + 1)
            for c in itertools.combinations(space.carrier, r)
        ]
        # One call per ordered pair; every property is checked on these values.
        d = [[hausdorff_distance(space, a, b) for b in subsets] for a in subsets]
        for i, a in enumerate(subsets):
            for j, b in enumerate(subsets):
                assert d[i][j] == d[j][i]
                assert (d[i][j] == ZERO) == (set(a) == set(b))
        for i, j, k in itertools.product(range(len(subsets)), repeat=3):
            assert d[i][k] <= d[i][j] + d[j][k]


class TestGromovHausdorff:
    def test_one_point_against_pair(self):
        one = space_from(["p"], lambda x, y: 0)
        pair = line_space([0, 2])
        assert gromov_hausdorff(one, pair) == ONE

    @given(metric_spaces(max_size=3), metric_spaces(max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive_correspondence_search(self, x_space, y_space):
        assert gromov_hausdorff(x_space, y_space) == brute_force_gh(x_space, y_space)

    @given(metric_spaces(max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_self_distance_zero_and_half_diameter(self, space):
        assert gromov_hausdorff(space, space) == ZERO
        one = space_from(["p"], lambda x, y: 0)
        assert gromov_hausdorff(one, space) == diameter(space).scale(Fraction(1, 2))

    @given(metric_spaces(max_size=3), metric_spaces(max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, x_space, y_space):
        assert gromov_hausdorff(x_space, y_space) == gromov_hausdorff(y_space, x_space)

    def test_relabeling_invariance(self):
        x_space = line_space([0, 1, 3])
        renamed = FiniteMetricSpace(["u", "v", "w"], x_space.entries)
        assert gromov_hausdorff(x_space, renamed) == ZERO

    def test_caps_and_unsupported_inputs(self):
        big = line_space(list(range(5)))
        with pytest.raises(ResourceLimitError) as caught:
            gromov_hausdorff(big, big, max_cells=20)
        assert caught.value.limit_name == "max_cells"
        assert caught.value.limit_value == 20
        inf_space = FiniteMetricSpace("ab", [[ZERO, INF], [INF, ZERO]])
        with pytest.raises(UnsupportedInputError):
            gromov_hausdorff(inf_space, inf_space)

    @pytest.mark.parametrize("mirrors", BOTH_MIRRORS)
    @given(
        x_space=metric_spaces(max_size=5),
        y_space=metric_spaces(max_size=4),
        swap=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_function_pair_search(self, mirrors, x_space, y_space, swap):
        """The threshold cover search against the branch-and-bound over
        pairs of functions, on 1-5 x 1-4 and 1-4 x 1-5 carriers."""
        if swap:
            x_space, y_space = y_space, x_space
        with mirrors():
            x_space, y_space = revalidated(x_space), revalidated(y_space)
            (dx, _), _ = extmetric_module._mirrors(x_space, y_space)
            assert dx.dtype == (object if mirrors is object_mirrors else np.int64)
            assert gromov_hausdorff(x_space, y_space) == reference_gromov_hausdorff(x_space, y_space)

    def test_seeded_pair_that_the_function_pair_search_finds_slow(self):
        """The 5 x 4 pair, among seeds 0-599, on which the branch-and-bound
        over pairs of functions is slowest (about 0.6 s against about 1 ms
        for the threshold search, on a 2-CPU Xeon)."""
        rng = random.Random(522)

        def space(n):
            rows = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = ExtRat(rng.choice(POSITIVE_POOL))
            return FiniteMetricSpace(LABELS[:n], fw_close(rows))

        x_space, y_space = space(5), space(4)
        assert gromov_hausdorff(x_space, y_space) == ONE
        assert reference_gromov_hausdorff(x_space, y_space) == ONE
        assert gromov_hausdorff(y_space, x_space) == ONE


class TestMaps:
    def test_doubling_map_is_not_nonexpansive(self):
        src = space_from([0, 1], lambda x, y: abs(x - y))
        dst = space_from([0, 1], lambda x, y: 2 * abs(x - y))
        ident = {0: 0, 1: 1}
        assert not is_nonexpansive_map(ident, src, dst)
        # The reverse direction halves distances, so it is nonexpansive.
        assert is_nonexpansive_map(ident, dst, src)

    def test_isometric_embedding(self):
        line = line_space([0, 1, 3])
        sub = restrict_space(line, [0, 3])
        include = {0: 0, 3: 3}
        assert is_isometric_embedding(include, sub, line)
        squash = {0: 0, 3: 0}
        assert not is_isometric_embedding(squash, sub, line)

    def test_undefined_point_raises(self):
        line = line_space([0, 1])
        with pytest.raises(DomainError):
            is_nonexpansive_map({0: 0}, line, line)

    def test_restrict_space_checks_membership(self):
        line = line_space([0, 1])
        with pytest.raises(DomainError):
            restrict_space(line, [0, 7])
        with pytest.raises(DomainError, match="empty carrier"):
            restrict_space(line, [])


class TestTrustedResults:
    """Spaces built by construction pass the public constructors unchanged."""

    @given(pseudometric_spaces(allow_inf=True))
    def test_metric_identification(self, space):
        out, _ = metric_identification(space)
        assert type(out) is FiniteMetricSpace
        assert revalidated(out) == out

    @given(metric_spaces(max_size=3, allow_inf=True), metric_spaces(max_size=3))
    def test_sup_product_and_restriction(self, s1, s2):
        prod = sup_product([s1, s2])
        assert type(prod) is FiniteMetricSpace
        assert revalidated(prod) == prod
        sub = restrict_space(prod, prod.carrier[::2])
        assert revalidated(sub) == sub

    def test_raw_matrices_are_validated_on_the_way_in(self):
        not_metric = PseudometricMatrix("ab", [[ZERO, ZERO], [ZERO, ZERO]])
        with pytest.raises(AxiomError, match="separation"):
            sup_product([not_metric])
        with pytest.raises(AxiomError, match="separation"):
            restrict_space(not_metric, "a")
        skew = SquareMatrix("ab", [[ZERO, ONE], [ExtRat(2), ZERO]])
        with pytest.raises(AxiomError, match="symmetry"):
            metric_identification(skew)
