"""Value semantics of the package's record classes.

Every subclass of ``core.Record`` found in the package's modules is checked
from one sample instance and its pinned field names, so a record added
later without both fails ``test_every_record_has_a_sample``.
"""

import copy
import importlib
import inspect
import pickle
import pkgutil
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

import wsapprox
from wsapprox.algorithms import (
    BiobjectiveRun,
    BisectProbe,
    CellAssignment,
    GridPlan,
    GridRun,
    GridWeight,
)
from wsapprox.core import (
    Bounds,
    Direction,
    FactorVector,
    FamilyKind,
    GuaranteeFamily,
    ObjectiveVector,
    Record,
    WeightVector,
    _RationalVector,
)
from wsapprox.instances import Arc, ExplicitInstance, GraphInstance, GraphKind, Rendered, Solution
from wsapprox.oracles import SupportCertificate, VerificationReport, Violation, Witness
from wsapprox.solvers import SolveAnswer, SolverHandle


def package_modules():
    """Every module of the package but ``__main__``, which runs the CLI."""
    names = [m.name for m in pkgutil.iter_modules(wsapprox.__path__) if m.name != "__main__"]
    return [wsapprox] + [importlib.import_module(f"wsapprox.{name}") for name in names]


def package_classes():
    return {
        obj
        for module in package_modules()
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__.startswith("wsapprox")
    }


def record_classes():
    found = {cls for cls in package_classes() if issubclass(cls, Record) and cls is not Record}
    return sorted(found, key=lambda cls: (cls.__module__, cls.__qualname__))


def first_solution(weights):
    """A kernel that pickles by name, for the SolverHandle sample."""
    return SolveAnswer("a", IMAGE, weights.scalarize(IMAGE), None)


ONE, TWO = Fraction(1), Fraction(2)
IMAGE = ObjectiveVector((ONE, TWO))
WEIGHT = WeightVector((ONE, ONE))
FACTORS = FactorVector((ONE, Fraction(3, 2)))
SOLUTION = Solution("a", IMAGE)
INSTANCE = ExplicitInstance(Direction.MIN, 2, (SOLUTION,))
ANSWER = SolveAnswer("a", IMAGE, Fraction(3), (0,))
FAMILY = GuaranteeFamily(FamilyKind.MULTI_FACTOR, 2, ONE, Fraction(3))
ENTRY = GridWeight((0, 1), WEIGHT)
PLAN_ARGS = (ONE, ONE, Fraction(1, 2), (1, 1), ((ONE, TWO), (ONE, TWO)), (ENTRY,))
PLAN = GridPlan(*PLAN_ARGS)
PROBE = BisectProbe(0, ONE, ANSWER)
WITNESS = Witness("a", "a", FACTORS)

# Constructor arguments of one instance of each record class.
SAMPLES = {
    _RationalVector: ((ONE,),),
    ObjectiveVector: ((ONE, TWO),),
    WeightVector: ((ONE, TWO),),
    FactorVector: ((ONE, TWO),),
    Bounds: ((ONE, ONE), (TWO, TWO)),
    GuaranteeFamily: (FamilyKind.UNIFORM, 3, ONE, Fraction(7, 2)),
    Solution: ("a", IMAGE),
    ExplicitInstance: (Direction.MAX, 2, (SOLUTION,)),
    Arc: (0, 1, IMAGE),
    GraphInstance: (Direction.MIN, 2, 2, (Arc(0, 1, IMAGE),), GraphKind.SHORTEST_PATH, 0, 1),
    SolveAnswer: ("a", IMAGE, Fraction(3), (0,)),
    SolverHandle: (INSTANCE, ONE, first_solution),
    GridWeight: ((0, 1), WEIGHT),
    GridPlan: PLAN_ARGS,
    CellAssignment: (0, "a", 1, (ONE, ONE), (TWO, TWO)),
    GridRun: (PLAN, (ANSWER,), (SOLUTION,), 1),
    BisectProbe: (0, ONE, ANSWER),
    BiobjectiveRun: (ONE, Fraction(1, 2), 1, 1, 3, (PROBE,), (SOLUTION,), 3, 1, 0, 0),
    SupportCertificate: (WEIGHT, True),
    Witness: ("a", "a", FACTORS),
    Violation: ("b", "a", FACTORS),
    VerificationReport: (FAMILY, True, (WITNESS,), ()),
    Rendered: (1, ("[]",)),
}

# Each record's fields, in order, stated independently of the classes.
FIELDS = {
    _RationalVector: ("values",),
    ObjectiveVector: ("values",),
    WeightVector: ("values",),
    FactorVector: ("values",),
    Bounds: ("lower", "upper"),
    GuaranteeFamily: ("kind", "p", "sigma", "bound"),
    Solution: ("id", "image"),
    ExplicitInstance: ("direction", "p", "solutions"),
    Arc: ("tail", "head", "cost"),
    GraphInstance: ("direction", "p", "node_count", "arcs", "kind", "source", "target"),
    SolveAnswer: ("solution_id", "image", "scalar", "arcs"),
    SolverHandle: ("instance", "sigma", "kernel"),
    GridWeight: ("exponents", "weight"),
    GridPlan: ("epsilon", "sigma", "eps_prime", "u", "corners", "entries"),
    CellAssignment: ("weight_index", "solution_id", "level", "lower", "upper"),
    GridRun: ("plan", "answers", "result", "ws_calls"),
    BisectProbe: ("index", "gamma", "answer"),
    BiobjectiveRun: (
        "epsilon", "eps_prime", "u1", "u2", "gamma_count", "probes", "result",
        "ws_calls", "tree_nodes", "two_child_nodes", "tree_height",
    ),
    SupportCertificate: ("weight", "weak"),
    Witness: ("target_id", "covered_by", "beta"),
    Violation: ("target_id", "best_candidate", "best_beta"),
    VerificationReport: ("family", "ok", "witnesses", "violations"),
    Rendered: ("depth", "pieces"),
}

# The records that coerce or check their fields, and so write their own
# ``__init__``; every other record is built by ``Record.__init__``.
OWN_INIT = {
    _RationalVector,
    ObjectiveVector,
    WeightVector,
    FactorVector,
    Bounds,
    GuaranteeFamily,
    ExplicitInstance,
    GraphInstance,
    SolverHandle,
}


def keywords(cls):
    """The sample's fields by name."""
    return dict(zip(FIELDS[cls], SAMPLES[cls]))


def test_every_record_has_a_sample():
    assert set(record_classes()) == set(SAMPLES) == set(FIELDS)


def test_only_records_that_coerce_or_check_write_init():
    assert {cls for cls in record_classes() if "__init__" in vars(cls)} == OWN_INIT


def test_a_solve_answer_needs_its_arcs():
    with pytest.raises(TypeError, match=r"SolveAnswer: missing fields \['arcs'\]"):
        SolveAnswer("a", IMAGE, Fraction(3))
    assert SolveAnswer("a", IMAGE, Fraction(3), None).arcs is None


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__qualname__)
class TestRecordSemantics:
    def test_fields_are_the_constructor_parameters(self, cls):
        record = cls(*SAMPLES[cls])
        assert record._fields == FIELDS[cls]
        assert not hasattr(record, "__dict__")
        if cls in OWN_INIT:
            parameters = list(inspect.signature(cls.__init__).parameters)
            assert parameters == ["self", *FIELDS[cls]]

    def test_fields_by_name_give_the_same_record(self, cls):
        assert cls(**keywords(cls)) == cls(*SAMPLES[cls])

    def test_a_missing_field_is_refused(self, cls):
        fields = keywords(cls)
        del fields[FIELDS[cls][0]]
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(**fields)

    def test_an_unknown_field_is_refused(self, cls):
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(*SAMPLES[cls], color=1)

    def test_a_repeated_field_is_refused(self, cls):
        first = FIELDS[cls][0]
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(*SAMPLES[cls], **{first: SAMPLES[cls][0]})

    def test_a_surplus_field_is_refused(self, cls):
        with pytest.raises(TypeError, match=cls.__qualname__):
            cls(*SAMPLES[cls], None)

    def test_equal_fields_give_equal_records(self, cls):
        a, b = cls(*SAMPLES[cls]), cls(*SAMPLES[cls])
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_another_class_with_the_same_fields_is_unequal(self, cls):
        other = type("Other", (cls,), {"__slots__": ()})
        a, b = cls(*SAMPLES[cls]), other(*SAMPLES[cls])
        assert [getattr(a, name) for name in a._fields] == [
            getattr(b, name) for name in b._fields
        ]
        assert a != b and b != a

    def test_fields_are_frozen(self, cls):
        record = cls(*SAMPLES[cls])
        for name in FIELDS[cls]:
            value = getattr(record, name)
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
            assert getattr(record, name) is value

    def test_repr_lists_the_fields_in_order(self, cls):
        record = cls(*SAMPLES[cls])
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in FIELDS[cls])
        assert repr(record) == f"{cls.__qualname__}({fields})"

    def test_copy_and_pickle_give_an_equal_record(self, cls):
        record = cls(*SAMPLES[cls])
        for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record

