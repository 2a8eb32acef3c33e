"""Tests for finite filters, reduced products, and closed-form limits."""

import contextlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metra.algebra import Homomorphism, MetricAlgebra, product
from metra.errors import DomainError, UnsupportedInputError
from metra.extmetric import ExtRat, ZERO
from metra.filters import (
    FiniteFilter,
    SeqForm,
    all_filters,
    parse_seq_form,
    pointwise_limit_metric,
    reduced_product,
)
from metra.terms import Signature

from conftest import (
    bare_algebra,
    find_isomorphism,
    metric_spaces,
    object_mirrors,
    pseudometric_spaces,
    reference_parse_seq_form,
    reference_stagewise_triangle,
    reference_sup,
    revalidated,
    space_from,
)

HALF = ExtRat(Fraction(1, 2))
ONE = ExtRat(1)


def two_point(step, table):
    space = space_from([0, 1], lambda x, y: ExtRat(step) if x != y else ZERO)
    return MetricAlgebra(Signature({"f": 1}), space, {"f": table})


SWAP = {(0,): 1, (1,): 0}
IDENT = {(0,): 0, (1,): 1}
CONST = {(0,): 0, (1,): 0}


class TestFiniteFilter:
    def test_core_is_put_in_index_order(self):
        f = FiniteFilter(("a", "b", "c"), ("c", "a"))
        assert f.core == ("a", "c")
        assert not f.is_ultrafilter
        assert FiniteFilter(("a", "b", "c"), ("b",)).is_ultrafilter

    def test_validation(self):
        with pytest.raises(DomainError):
            FiniteFilter((), ())
        with pytest.raises(DomainError):
            FiniteFilter((1, 1), (1,))
        with pytest.raises(DomainError):
            FiniteFilter((1, 2), ())
        with pytest.raises(DomainError):
            FiniteFilter((1, 2), (3,))

    def test_filter_inventories(self):
        assert len(all_filters((1, 2))) == 3
        assert len(all_filters((1, 2, 3))) == 7
        assert [f.core for f in all_filters((1, 2)) if f.is_ultrafilter] == [(1,), (2,)]


class TestReducedProduct:
    FACTORS = [
        two_point(1, SWAP),
        two_point(Fraction(1, 2), IDENT),
        two_point(2, CONST),
    ]

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    @given(
        spaces=st.lists(metric_spaces(max_size=2, allow_inf=True), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_limsup_matches_the_entries(self, mirrors, spaces, data):
        index_set = tuple(range(len(spaces)))
        core = data.draw(st.sets(st.sampled_from(index_set), min_size=1))
        with mirrors():
            algebras = [bare_algebra(revalidated(s)) for s in spaces]
            red = reduced_product(algebras, FiniteFilter(index_set, core))
        positions = [p for p in index_set if p in core]
        assert red.theta.matrix.entries == tuple(map(tuple, reference_sup(spaces, positions)))

    def test_ultrafilter_recovers_the_chosen_factor(self):
        u = FiniteFilter((0, 1, 2), (1,))
        red = reduced_product(self.FACTORS, u)
        assert red.exists
        mapping = {x: x[1] for x in red.algebra.carrier}
        iso = Homomorphism(red.algebra, self.FACTORS[1], mapping)
        assert iso.is_injective and iso.is_surjective and iso.is_isometric
        assert find_isomorphism(red.algebra, self.FACTORS[1]) is not None

    def test_every_filter_matches_the_core_product(self):
        index_set = (0, 1, 2)
        for f in all_filters(index_set):
            red = reduced_product(self.FACTORS, f)
            assert red.exists
            core_pos = [index_set.index(i) for i in f.core]
            expected, _ = product([self.FACTORS[p] for p in core_pos])
            mapping = {
                x: tuple(x[p] for p in core_pos) for x in red.algebra.carrier
            }
            iso = Homomorphism(red.algebra, expected, mapping)
            assert iso.is_injective and iso.is_surjective and iso.is_isometric

    def test_theta_is_the_limsup_distance(self):
        f = FiniteFilter((0, 1, 2), (0, 2))
        red = reduced_product(self.FACTORS, f)
        x, y = (0, 0, 0), (1, 0, 1)
        assert red.theta.matrix.get(x, y) == ExtRat(2)
        y2 = (0, 1, 0)
        assert red.theta.matrix.get(x, y2) == ZERO

    def test_projection_is_onto_the_quotient(self):
        f = FiniteFilter((0, 1, 2), (1,))
        red = reduced_product(self.FACTORS, f)
        assert red.projection.is_surjective
        assert red.algebra.space.size == 2

    def test_results_pass_the_public_constructors(self):
        for f in all_filters((0, 1, 2)):
            red = reduced_product(self.FACTORS, f)
            assert revalidated(red.theta) == red.theta
            assert revalidated(red.algebra.space) == red.algebra.space

    def test_factor_count_must_match(self):
        with pytest.raises(DomainError):
            reduced_product(self.FACTORS[:2], FiniteFilter((0, 1, 2), (0,)))


# Pieces of sequence-form text: blank space, comments (ended by a newline or
# by the text), signs, numbers (zero denominators among them), ``n`` and the
# longer names that begin with it, and characters the lexer reads otherwise.
SEQ_PIECES = [
    "", " ", "\t", "\n", "# c\n", "# # -\n", "#", "-", "+", "/", "n", "nn", "n'", "n2",
    "0", "1", "12", "1/2", "3/6", "1/0", "2/00", "->", "0.5", "\u0663", '"',
]


@st.composite
def seq_form_texts(draw):
    """Texts shaped like ``q``, ``q/n`` or ``q + r/n``, with gaps, signs and
    names in place of ``n`` that may or may not read as it."""
    gap = lambda: draw(st.sampled_from(["", " ", "\n", "# a #\n", "\t #\n "]))
    num = lambda: draw(st.sampled_from(["0", "1", "12", "1/2", "4/6", "1/0", "03/004"]))
    sign = lambda: draw(st.sampled_from(["", "-", "- ", "-# x\n"]))
    n = lambda: draw(st.sampled_from(["n", "n", "nn", "n'", "n2", "m"]))
    text = gap() + sign() + num() + gap()
    shape = draw(st.sampled_from(["q", "q/n", "q + r/n"]))
    if shape == "q/n":
        text += "/" + gap() + n() + gap()
    elif shape == "q + r/n":
        text += "+" + gap() + sign() + num() + gap() + "/" + gap() + n() + gap()
    return text


def _outcome(parse, text):
    """The form read, or the type and text of the error raised."""
    try:
        return parse(text)
    except (DomainError, UnsupportedInputError) as error:
        return type(error), str(error)


class TestSeqForm:
    def test_parse_constant(self):
        f = parse_seq_form("3")
        assert f == SeqForm(Fraction(3))
        assert f.limit == ExtRat(3)
        assert f.at(17) == ExtRat(3)

    def test_parse_pure_decay(self):
        f = parse_seq_form("3/n")
        assert f == SeqForm(Fraction(0), Fraction(3))
        assert f.at(1) == ExtRat(3)
        assert f.at(3) == ONE
        assert f.limit == ZERO

    def test_parse_affine(self):
        f = parse_seq_form("1 + 1/n")
        assert f.at(2) == ExtRat(Fraction(3, 2))
        assert f.limit == ONE

    def test_parse_negative_correction(self):
        f = parse_seq_form("1 + -1/2/n")
        assert f.at(1) == HALF
        assert f.at(2) == ExtRat(Fraction(3, 4))
        assert f.limit == ONE

    @pytest.mark.parametrize(
        "bad",
        ["", "n", "/n", "1 + 2", "1/n + 1/n", "one", "0.5 + 3/n", "1 + \u0663/n", "1/0", "2/0/n"],
    )
    def test_unreadable_inputs(self, bad):
        with pytest.raises(UnsupportedInputError):
            parse_seq_form(bad)

    def test_invalid_values(self):
        with pytest.raises(DomainError):
            parse_seq_form("-1")
        with pytest.raises(DomainError):
            parse_seq_form("0 + -1/n")
        with pytest.raises(DomainError):
            SeqForm(Fraction(1)).at(0)

    @pytest.mark.parametrize("text", [
        "", " \t\n", " 1 ", "# c\n1", "1 # c", "1 # c\n+ 1/n", "-1/2/n", "- 1 / n",
        "2 + - # c\n 1/2 / n # c", "1/2/n", "1/0", "1/0/n", "1 + 1/0/n", "nn", "1/nn",
        "1/n'", "1/n2", "1 + 1/n2", "1/n #", "1 -1/n", "--1", "->1", "1/2/3/n", "12/n",
    ])
    def test_parse_seq_form_matches_the_token_reader_on_edges(self, text):
        assert _outcome(parse_seq_form, text) == _outcome(reference_parse_seq_form, text)

    @given(text=st.one_of(st.lists(st.sampled_from(SEQ_PIECES), max_size=8).map("".join),
                          seq_form_texts()))
    @settings(max_examples=300)
    def test_parse_seq_form_matches_the_token_reader(self, text):
        """The one match reads the same form as the lexer's tokens, or
        raises the same error, as text built from lexer pieces and from
        forms with gaps, signs and suffixes of ``n`` shows."""
        assert _outcome(parse_seq_form, text) == _outcome(reference_parse_seq_form, text)

    @given(
        c=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)]),
        r=st.sampled_from(
            [Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2)]
        ),
    )
    @settings(max_examples=40)
    def test_str_round_trip(self, c, r):
        if c + r < 0:
            return
        form = SeqForm(c, r)
        assert parse_seq_form(str(form)) == form


class TestPointwiseLimit:
    def test_collapsing_pair(self):
        limit = pointwise_limit_metric(
            ("a", "b", "c"),
            {("a", "b"): "1/n", ("a", "c"): "1", ("b", "c"): "1"},
        )
        assert limit.get("a", "b") == ZERO
        assert limit.get("a", "c") == ONE
        assert revalidated(limit) == limit

    def test_seq_form_objects_are_accepted(self):
        limit = pointwise_limit_metric(
            ("a", "b"), {("a", "b"): SeqForm(Fraction(1), Fraction(1))}
        )
        assert limit.get("a", "b") == ONE

    def test_seq_form_parts_are_fractions(self):
        """Any rational is a part, a float read exactly; anything else is a
        typed error when the form is made."""
        limit = pointwise_limit_metric(("a", "b"), {("a", "b"): SeqForm(0.5, 1)})
        assert limit.get("a", "b") == HALF
        assert SeqForm(0.5, 1) == SeqForm(Fraction(1, 2), Fraction(1))
        with pytest.raises(DomainError, match="the 1/n term r must be a rational, got None"):
            SeqForm(Fraction(1), None)

    def test_late_stage_triangle_failure(self):
        with pytest.raises(DomainError, match="late stage"):
            pointwise_limit_metric(
                ("a", "b", "c"),
                {("a", "b"): "1/n", ("a", "c"): "1 + 3/n", ("b", "c"): "1"},
            )

    def test_limit_triangle_failure(self):
        with pytest.raises(DomainError, match="triangle"):
            pointwise_limit_metric(
                ("a", "b", "c"),
                {("a", "b"): "2", ("a", "c"): "1/2", ("b", "c"): "1"},
            )

    def test_missing_pair(self):
        with pytest.raises(DomainError, match="no sequence"):
            pointwise_limit_metric(("a", "b", "c"), {("a", "b"): "1"})

    @pytest.mark.parametrize("forms, message", [
        ({("a", "b"): "1", ("b", "a"): "2"}, "the pair (b, a) is given in both orders"),
        ({("a", "b"): "1", ("a", "a"): "3"},
         "the pair (a, a) lies on the diagonal, whose sequence is 0"),
        ({("a", "b"): "1", ("a", "q"): "3"}, "the pair (a, q) names q, which is not in the carrier"),
        ({("q", "a"): SeqForm(Fraction(1)), ("a", "b"): "1"},
         "the pair (q, a) names q, which is not in the carrier"),
    ])
    def test_each_pair_of_distinct_points_is_given_once(self, forms, message):
        """A form is never dropped or overridden: a pair given in both
        orders, one on the diagonal and one off the carrier are refused."""
        with pytest.raises(DomainError) as error:
            pointwise_limit_metric(("a", "b"), forms)
        assert str(error.value) == message

    def test_parts_past_int64_in_either_sign(self):
        """A limit and a 1/n part far below -2**63 stay exact."""
        big = 10**20
        limit = pointwise_limit_metric(
            ("a", "b", "c"),
            {("a", "b"): f"{big} + -{big}/n", ("a", "c"): f"{big} + -{big}/n", ("b", "c"): "1/n"},
        )
        assert limit.get("a", "b") == limit.get("a", "c") == ExtRat(big)
        with pytest.raises(DomainError, match="late stage"):
            pointwise_limit_metric(
                ("a", "b", "c"),
                {("a", "b"): f"{big} + -{big}/n", ("a", "c"): f"{big}", ("b", "c"): "1/n"},
            )

    # The 1/n coefficients: negative ones, and one far past the int64 guard.
    R_POOL = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2), Fraction(1, 3),
              Fraction(-1), Fraction(10**15)]

    @pytest.mark.parametrize("mirrors", [contextlib.nullcontext, object_mirrors])
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_stagewise_check_matches_the_triple_loop(self, mirrors, data):
        """The array pass finds the same first failing triangle, in the
        loop's x, z, y order, as the loop over every triple of parts; the
        constant parts form a pseudometric, whose zeros and sums give ties."""
        space = data.draw(pseudometric_spaces(max_size=5, allow_inf=False))
        carrier, forms = space.carrier, {}
        for i, a in enumerate(carrier):
            for b in carrier[i + 1 :]:
                c = space.get(a, b).finite
                r = data.draw(st.sampled_from([r for r in self.R_POOL if c + r >= 0]))
                forms[(a, b)] = SeqForm(c, r)
        want = reference_stagewise_triangle(carrier, forms)
        with mirrors():
            try:
                got, limit = None, pointwise_limit_metric(carrier, forms)
            except DomainError as error:
                got, limit = str(error), None
        assert got == want
        if limit is not None:
            assert limit.entries == space.entries
