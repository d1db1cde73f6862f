import itertools
import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from wsapprox import (
    Bounds,
    ContractViolation,
    Direction,
    ExplicitInstance,
    FactorVector,
    GuaranteeFamily,
    ObjectiveVector,
    Solution,
    WeightVector,
    approximates,
    as_rational,
    factor_vector,
    format_rational,
    parse_rational,
    verify_approximation,
)

from conftest import biobjective_instances, objective_vectors, rationals, with_front_midpoint
from reference import (
    covers,
    covers_disjunctive,
    dominates,
    factor_le,
    family_contains,
    multi_factor_witness,
    on_front,
    parse_rational_by_fraction,
    verify_by_fractions,
)

MIN, MAX = Direction.MIN, Direction.MAX
ov = ObjectiveVector.of
fv = FactorVector.of
VECTOR_CLASSES = (ObjectiveVector, WeightVector, FactorVector)


# Digit runs for parse_rational: ASCII and other Unicode decimal digits,
# empty, with leading zeros, and at and one past int()'s digit limit.
DIGIT_LIMIT = sys.get_int_max_str_digits() or 5000
DIGIT_RUNS = st.one_of(
    st.text(st.sampled_from("0012789\u0663\u06f7\u0969\uff15"), max_size=6),
    st.sampled_from(["7" * DIGIT_LIMIT, "0" * DIGIT_LIMIT, "7" * (DIGIT_LIMIT + 1)]),
)
SPACES = st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\u2003\u3000"), max_size=2)


@st.composite
def rational_texts(draw):
    """A sign, a digit run and maybe "/" and a second run, padded with
    ASCII and Unicode whitespace."""
    sign = draw(st.sampled_from(["", "+", "-", "+-"]))
    denominator = draw(st.one_of(st.none(), DIGIT_RUNS))
    literal = sign + draw(DIGIT_RUNS) + ("" if denominator is None else "/" + denominator)
    return draw(SPACES) + literal + draw(SPACES)


class TestRationalParsing:
    def test_parse_integer_and_fraction(self):
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("5/2") == Fraction(5, 2)
        assert parse_rational("-3/6") == Fraction(-1, 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "5/0", "5/-2", "1.5", "", "a", "1e3", "2/",
            pytest.param("9" * 5000, id="numerator-beyond-int-digit-limit"),
            pytest.param("1/" + "7" * 5000, id="denominator-beyond-int-digit-limit"),
            pytest.param("1/\u0660", id="arabic-indic-zero-denominator"),
            pytest.param("1/0\u06f0\uff10", id="mixed-script-zero-denominator"),
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ContractViolation):
            parse_rational(bad)

    def test_floats_rejected(self):
        with pytest.raises(ContractViolation):
            as_rational(0.5)
        with pytest.raises(ContractViolation):
            as_rational(True)

    @given(
        st.one_of(
            rational_texts(),
            st.text(max_size=6),
            st.sampled_from([None, 7, 1.5, True, b"1/2", ["1"], Fraction(1, 2)]),
        )
    )
    @settings(max_examples=300)
    def test_matches_fraction_of_the_checked_literal(self, text):
        try:
            expected = parse_rational_by_fraction(text)
        except ContractViolation as exc:
            with pytest.raises(ContractViolation) as raised:
                parse_rational(text)
            assert str(raised.value) == str(exc)
        else:
            value = parse_rational(text)
            assert type(value) is Fraction and value == expected

    @given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
    def test_round_trip(self, num, den):
        value = Fraction(num, den)
        assert parse_rational(format_rational(value)) == value


class TestDominates:
    def test_spec_examples(self):
        assert dominates(ov(1, 1), ov(1, 2), MIN)
        assert not dominates(ov(1, 2), ov(2, 1), MIN)
        assert dominates(ov(2, 2), ov(1, 1), MAX)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            dominates(ov(1, 1), ov(1, 1, 1), MIN)

    @given(objective_vectors(p=3), st.sampled_from([MIN, MAX]))
    def test_irreflexive(self, a, d):
        assert not dominates(a, a, d)

    @given(objective_vectors(p=3), objective_vectors(p=3), st.sampled_from([MIN, MAX]))
    def test_antisymmetric(self, a, b, d):
        assert not (dominates(a, b, d) and dominates(b, a, d))

    @given(
        objective_vectors(p=3),
        objective_vectors(p=3),
        objective_vectors(p=3),
        st.sampled_from([MIN, MAX]),
    )
    def test_transitive(self, a, b, c, d):
        if dominates(a, b, d) and dominates(b, c, d):
            assert dominates(a, c, d)


class TestFactorVector:
    def test_spec_examples(self):
        assert factor_vector(ov(3, 4), ov(1, 4), MIN).values == (Fraction(3), Fraction(1))
        assert factor_vector(ov(4, "1/2"), ov("5/2", "5/2"), MIN).values == (
            Fraction(8, 5),
            Fraction(1),
        )
        assert factor_vector(ov(2, 3), ov(2, 3), MIN).values == (Fraction(1), Fraction(1))
        assert factor_vector(ov(2, 3), ov(2, 3), MAX).values == (Fraction(1), Fraction(1))

    def test_component_below_one_rejected(self):
        with pytest.raises(ContractViolation):
            fv("1/2", 1)

    @given(objective_vectors(), objective_vectors(), st.sampled_from([MIN, MAX]))
    def test_all_components_at_least_one(self, a, b, d):
        assert all(f >= 1 for f in factor_vector(a, b, d))

    @given(objective_vectors(p=3), objective_vectors(p=3), st.sampled_from([MIN, MAX]))
    def test_is_minimal_factor(self, a, b, d):
        beta = factor_vector(a, b, d)
        assert approximates(a, b, beta, d)
        for j, f in enumerate(beta):
            if f > 1:
                shrunk = list(beta.values)
                shrunk[j] = (f + 1) / 2
                assert not approximates(a, b, FactorVector(tuple(shrunk)), d)


class TestApproximates:
    def test_spec_examples(self):
        assert approximates(ov(1, 8), ov(2, 2), fv(1, 4), MIN)
        assert not approximates(ov(8, 1), ov(1, 8), fv(4, 1), MIN)
        assert approximates(ov(3, 7), ov(3, 7), fv(1, 1), MIN)

    def test_max_direction(self):
        # (1,1) within factor (2,2) of (2,2) when maximizing
        assert approximates(ov(1, 1), ov(2, 2), fv(2, 2), MAX)
        assert not approximates(ov(1, 1), ov(2, 2), fv("3/2", 2), MAX)


def multifactor(sigma, epsilon, p=2):
    return GuaranteeFamily.multi_factor(sigma, epsilon, p)


class TestCovers:
    @pytest.mark.parametrize(
        "beta,sigma,expected",
        [
            (fv(1, 1), 1, True),
            (fv(1, "12/5"), 1, True),
            (fv("6/5", "6/5"), 1, False),
            (fv("6/5", "6/5"), "3/2", True),
        ],
    )
    def test_spec_examples(self, beta, sigma, expected):
        assert covers(beta, multifactor(sigma, "1/2")) is expected

    def test_uniform_and_disjunctive(self):
        uni = GuaranteeFamily.uniform(1, "1/2", 2)
        assert covers(fv("5/2", "5/2"), uni)
        assert not covers(fv("5/2", "13/5"), uni)
        dis = multifactor(1, "1/2")  # the pair {(1, 5/2), (5/2, 1)}
        assert covers(fv(1, "5/2"), dis)
        assert covers(fv("5/2", 1), dis)
        assert not covers(fv("11/10", "11/10"), dis)

    @given(
        st.lists(rationals(1, 4), min_size=3, max_size=3),
        st.lists(st.integers(0, 8), min_size=3, max_size=3),
        rationals(1, 2),
        rationals(1, 3),
    )
    def test_monotone(self, base, bumps, sigma, epsilon):
        fam = GuaranteeFamily.multi_factor(sigma, epsilon, 3)
        smaller = FactorVector(tuple(base))
        larger = FactorVector(tuple(b + Fraction(k, 12) for b, k in zip(base, bumps)))
        if covers(larger, fam):
            assert covers(smaller, fam)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            covers(fv(1, 1, 1), multifactor(1, 1))


class TestWitness:
    def test_spec_exact_point_witness(self):
        fam = multifactor(1, "1/2")
        witness = multi_factor_witness(fv(1, 1), fam)
        assert witness.values == (Fraction(5, 2), Fraction(1))
        assert family_contains(fam, witness)

    @given(
        st.lists(rationals(1, 4), min_size=2, max_size=2),
        rationals(1, 2),
        rationals(1, 3),
    )
    @settings(max_examples=200)
    def test_witness_justifies_closed_form_p2(self, factors, sigma, epsilon):
        self._check_witness(FactorVector(tuple(factors)), sigma, epsilon, 2)

    @given(
        st.lists(rationals(1, 5), min_size=4, max_size=4),
        rationals(1, 2),
        rationals(1, 3),
    )
    @settings(max_examples=200)
    def test_witness_justifies_closed_form_p4(self, factors, sigma, epsilon):
        self._check_witness(FactorVector(tuple(factors)), sigma, epsilon, 4)

    @staticmethod
    def _check_witness(beta, sigma, epsilon, p):
        fam = GuaranteeFamily.multi_factor(sigma, epsilon, p)
        witness = multi_factor_witness(beta, fam)
        if covers(beta, fam):
            # The closed form is exactly "some alpha in the set dominates beta".
            assert witness is not None
            assert factor_le(beta, witness)
            assert family_contains(fam, witness)
        else:
            assert witness is None

    def test_no_witness_when_sum_bound_at_most_one(self):
        fam = GuaranteeFamily.multi_factor_raw(1, 1, 2)
        assert covers(fv(1, 1), fam)
        assert multi_factor_witness(fv(1, 1), fam) is None


@st.composite
def biobjective_id_sets(draw):
    inst = draw(with_front_midpoint(biobjective_instances))
    return inst, draw(st.lists(st.sampled_from(inst.ids()), unique=True))


def pair_instance(direction, a, b):
    return ExplicitInstance(direction, 2, (Solution("a", ov(*a)), Solution("b", ov(*b))))


class TestFamilyConsistency:
    @given(
        biobjective_id_sets(),
        st.sampled_from([Fraction(1, 100), Fraction(1, 10), Fraction(1), Fraction(2)]),
    )
    # "a" approximates "b" with beta = (1, 3), on the bound 2 + 1 exactly.
    @example((pair_instance(MIN, (1, 6), (2, 2)), ["a"]), Fraction(1))
    @example((pair_instance(MAX, (2, "2/3"), (2, 2)), ["a"]), Fraction(1))
    @settings(max_examples=200)
    def test_multifactor_sigma1_p2_equals_disjunctive(self, case, epsilon):
        # At sigma = 1 and p = 2 the multi-factor family is the pair
        # {(1, 2+eps), (2+eps, 1)}: its verdict is that of the pair's closed
        # form over all targets, its witnesses and violations those of the
        # front targets.
        inst, ids = case
        family = multifactor(1, epsilon)
        expected = verify_by_fractions(ids, inst, family, decide=covers_disjunctive)
        assert verify_approximation(ids, inst, family) == on_front(expected, inst)

    def test_constructor_validation(self):
        with pytest.raises(ContractViolation):
            GuaranteeFamily.multi_factor("1/2", 1, 2)  # sigma < 1
        with pytest.raises(ContractViolation):
            GuaranteeFamily.multi_factor(1, 0, 2)  # epsilon must be positive
        with pytest.raises(ContractViolation):
            GuaranteeFamily.multi_factor_raw(1, 0, 2)  # bound must be positive
        deficit = GuaranteeFamily.multi_factor_raw(1, "3/2", 2)
        assert deficit.bound == Fraction(3, 2)


class TestValueObjects:
    def test_objective_vector_validation(self):
        with pytest.raises(ContractViolation):
            ObjectiveVector.of(1)  # p >= 2
        with pytest.raises(ContractViolation):
            ObjectiveVector.of(1, 0)
        with pytest.raises(ContractViolation):
            ObjectiveVector.of(1, -2)

    def test_vectors_hashable_and_immutable(self):
        for cls in VECTOR_CLASSES:
            a = cls.of(1, 2)
            assert hash(a) == hash(cls.of(1, 2))
            with pytest.raises(FrozenInstanceError):
                a.values = (Fraction(1),)

    def test_vector_classes_stay_distinct(self):
        # One base class holds the values, but equality and hashing stay
        # per class: a weight vector is never an image or a factor vector.
        vectors = [cls.of(1, "3/2") for cls in VECTOR_CLASSES]
        for a, b in itertools.combinations(vectors, 2):
            assert a != b and b != a
        assert len(dict.fromkeys(vectors)) == len(set(vectors)) == 3
        for vector, cls in zip(vectors, VECTOR_CLASSES):
            assert type(vector) is cls
            assert vector.values == (Fraction(1), Fraction(3, 2)) != vector
            values = "(Fraction(1, 1), Fraction(3, 2))"
            assert repr(vector) == f"{cls.__name__}(values={values})"


# The invariant of each vector class, stated with Fraction comparisons.
VECTOR_INVARIANTS = {
    ObjectiveVector: lambda vs: len(vs) >= 2 and all(v > 0 for v in vs),
    WeightVector: lambda vs: len(vs) >= 1 and all(v > 0 for v in vs),
    FactorVector: lambda vs: all(v >= 1 for v in vs),
}


def _build(cls, values):
    try:
        return cls(values)
    except ContractViolation as exc:
        return str(exc)


class TestVectorCoercion:
    @given(
        st.sampled_from(VECTOR_CLASSES),
        st.lists(rationals(-2, 3, denominator=4), max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_ints_strings_and_fractions_build_equal_vectors(self, cls, values):
        fractions = tuple(values)
        spellings = [
            fractions,
            list(fractions),
            tuple(format_rational(v) for v in values),
            tuple(v.numerator if v.denominator == 1 else format_rational(v) for v in values),
        ]
        built = [_build(cls, spelled) for spelled in spellings]
        assert all(b == built[0] for b in built)
        if VECTOR_INVARIANTS[cls](fractions):
            assert all(type(b) is cls and b.values == fractions for b in built)
            assert all(type(b.values) is tuple for b in built)
            assert all(type(v) is Fraction for v in built[-1].values)
        else:
            assert isinstance(built[0], str)

    @pytest.mark.parametrize("cls", VECTOR_CLASSES)
    @pytest.mark.parametrize("bad", [1.5, True, None], ids=["float", "bool", "none"])
    def test_non_rational_component_refused_beside_fractions(self, cls, bad):
        with pytest.raises(ContractViolation, match="exact rational required|cannot interpret"):
            cls((Fraction(2), Fraction(3), bad))


# Validation refusals: input, exception type, message fragment.
REFUSALS = [
    pytest.param(lambda: as_rational([1]), ContractViolation, "cannot interpret", id="non-rational"),
    pytest.param(
        lambda: Bounds((1, 1), (2,)), ContractViolation, "differ in dimension", id="bounds-dims"
    ),
    pytest.param(
        lambda: Bounds((2, 1), (1, 1)), ContractViolation, "0 < lower <= upper", id="bounds-order"
    ),
    pytest.param(
        lambda: ov(1),
        ContractViolation,
        "objective vectors need p >= 2 components",
        id="image-p1",
    ),
    pytest.param(
        lambda: ov(1, 0),
        ContractViolation,
        "objective values must be strictly positive",
        id="image-zero",
    ),
    pytest.param(
        lambda: WeightVector(()), ContractViolation, "empty weight vector", id="weights-empty"
    ),
    pytest.param(
        lambda: WeightVector.of(1, 0),
        ContractViolation,
        "weights must be strictly positive",
        id="weight-zero",
    ),
    pytest.param(
        lambda: fv(1, "1/2"),
        ContractViolation,
        "approximation factors must be >= 1",
        id="factor-below-1",
    ),
    pytest.param(
        lambda: WeightVector.of(1, 1).scalarize(ov(1, 1, 1)),
        ContractViolation,
        "dimension mismatch",
        id="scalarize-dims",
    ),
    pytest.param(
        lambda: GuaranteeFamily.uniform_raw(3, 1), ContractViolation, "p >= 2", id="family-p1"
    ),
    pytest.param(
        lambda: GuaranteeFamily.uniform(1, 0, 2),
        ContractViolation,
        "use uniform_raw",
        id="uniform-epsilon-zero",
    ),
    pytest.param(
        lambda: factor_vector(ov(1, 1), ov(1, 1, 1), MIN),
        ContractViolation,
        "dimension mismatch",
        id="factor-vector-dims",
    ),
    pytest.param(
        lambda: approximates(ov(1, 1), ov(1, 1), fv(1, 1, 1), MIN),
        ContractViolation,
        "dimension mismatch",
        id="approximates-alpha-dims",
    ),
]


@pytest.mark.parametrize("build,error,fragment", REFUSALS)
def test_refuses_invalid_input(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()
