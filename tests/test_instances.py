import copy
import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from wsapprox import (
    ContractViolation,
    Direction,
    ExplicitInstance,
    GraphInstance,
    GraphKind,
    InstanceFormatError,
    ObjectiveVector,
    Solution,
    compute_bounds,
    enumerate_graph_solutions,
    gen_max_counterexample,
    gen_random_explicit,
    gen_random_graph,
    gen_tightness_min,
    instance_from_json,
)
from wsapprox import instances
from wsapprox.core import format_rationals, parse_rational
from wsapprox.instances import Rendered, canonical_dumps, instance_text

from conftest import enumerable_graphs, explicit_instances, rationals
from reference import (
    canonical_dumps_by_json,
    image_of,
    instance_from_json_by_literals,
    instance_to_json,
)


class TestTightnessMin:
    def test_p2_m4(self):
        inst = gen_tightness_min(2, 4)
        images = [s.image.values for s in inst.solutions]
        assert images == [
            (Fraction(4), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(4)),
            (Fraction(5, 2), Fraction(5, 2)),
        ]
        assert inst.direction is Direction.MIN

    def test_p3_m10(self):
        inst = gen_tightness_min(3, 10)
        assert image_of(inst, "y1").values == (Fraction(10), Fraction(1, 3), Fraction(1, 3))
        assert image_of(inst, "ytilde").values == (Fraction(11, 3),) * 3

    def test_peak_ratio_exceeds_deficit_bound(self):
        # p * M / (M+1) > p - eps exactly when M > p/eps - 1
        for p, eps in ((2, Fraction(1, 2)), (3, Fraction(1))):
            m = Fraction(p, eps) - 1 + Fraction(1, 7)
            inst = gen_tightness_min(p, m)
            peak = image_of(inst, "y1")[0]
            center = image_of(inst, "ytilde")[0]
            assert peak / center > p - eps

    def test_parameter_validation(self):
        with pytest.raises(ContractViolation):
            gen_tightness_min(1, 4)
        with pytest.raises(ContractViolation):
            gen_tightness_min(2, 1)


class TestMaxCounterexample:
    def test_p2_shape(self):
        inst = gen_max_counterexample(2, 100)
        assert inst.direction is Direction.MAX
        assert image_of(inst, "x1").values == (Fraction(100), Fraction(1, 2))
        assert image_of(inst, "xtilde").values == (Fraction(50), Fraction(50))

    def test_p2_m2_instantiation(self):
        inst = gen_max_counterexample(2, 2)
        assert [s.image.values for s in inst.solutions] == [
            (Fraction(2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(2)),
            (Fraction(1), Fraction(1)),
        ]

    @pytest.mark.parametrize("p,m", [(2, 5), (3, 9), (4, 100)])
    def test_component_ratio_is_exactly_m(self, p, m):
        inst = gen_max_counterexample(p, m)
        center = image_of(inst, "xtilde")
        for ell in range(p):
            axis = image_of(inst, f"x{ell + 1}")
            for j in range(p):
                if j != ell:
                    assert center[j] / axis[j] == m


class TestRandomGenerators:
    def test_explicit_deterministic(self):
        a = gen_random_explicit(3, 10, 1, 10, seed=42)
        b = gen_random_explicit(3, 10, 1, 10, seed=42)
        assert canonical_dumps(instance_text(a, 0)) == canonical_dumps(instance_text(b, 0))
        c = gen_random_explicit(3, 10, 1, 10, seed=43)
        assert instance_to_json(a) != instance_to_json(c)

    def test_single_solution_and_constant_range(self):
        single = gen_random_explicit(2, 1, 1, 5, seed=0)
        assert len(single.solutions) == 1
        flat = gen_random_explicit(2, 5, 3, 3, seed=0)
        assert all(s.image.values == (Fraction(3), Fraction(3)) for s in flat.solutions)

    def test_all_values_positive_and_bounded(self):
        inst = gen_random_explicit(4, 30, "1/2", "7/2", seed=9)
        bounds = compute_bounds(inst)
        assert all(lo > 0 for lo in bounds.lower)
        for s in inst.solutions:
            assert all(Fraction(1, 2) <= v <= Fraction(7, 2) for v in s.image)

    def test_graph_deterministic_and_valid(self):
        a = gen_random_graph(6, 10, 2, 1, 4, seed=5, kind=GraphKind.SHORTEST_PATH)
        b = gen_random_graph(6, 10, 2, 1, 4, seed=5, kind=GraphKind.SHORTEST_PATH)
        assert instance_to_json(a) == instance_to_json(b)
        assert a.source == 0 and a.target == 5

    def test_chain_graph_has_unique_path(self):
        inst = gen_random_graph(5, 4, 2, 1, 3, seed=1, kind=GraphKind.SHORTEST_PATH)
        explicit = enumerate_graph_solutions(inst)
        assert len(explicit.solutions) == 1

    def test_path_costs_match_arc_sums(self):
        inst = gen_random_graph(5, 9, 2, 1, 3, seed=2, kind=GraphKind.SHORTEST_PATH)
        explicit = enumerate_graph_solutions(inst)
        for s in explicit.solutions:
            indices = [int(i) for i in s.id.removeprefix("path:").split(",")]
            total = [Fraction(0), Fraction(0)]
            for i in indices:
                for j in range(2):
                    total[j] += inst.arcs[i].cost[j]
            assert tuple(total) == s.image.values

    def test_infeasible_parameters_rejected(self):
        with pytest.raises(ContractViolation):
            gen_random_graph(5, 3, 2, 1, 3, seed=0, kind=GraphKind.SPANNING_TREE)
        with pytest.raises(ContractViolation):
            gen_random_explicit(2, 0, 1, 2, seed=0)
        with pytest.raises(ContractViolation):
            gen_random_explicit(2, 3, 2, 1, seed=0)


class TestJsonSchema:
    def test_round_trip_explicit_is_byte_identical(self):
        inst = gen_tightness_min(2, 4)
        text = canonical_dumps(instance_text(inst, 0))
        parsed = instance_from_json(instance_to_json(inst))
        assert canonical_dumps(instance_text(parsed, 0)) == text

    def test_round_trip_graph(self):
        for kind in GraphKind:
            inst = gen_random_graph(5, 8, 2, 1, 4, seed=3, kind=kind)
            data = instance_to_json(inst)
            parsed = instance_from_json(data)
            assert instance_to_json(parsed) == data
            assert isinstance(parsed, GraphInstance)

    def test_unknown_field_rejected(self):
        data = instance_to_json(gen_tightness_min(2, 4))
        data["comment"] = "oops"
        with pytest.raises(InstanceFormatError):
            instance_from_json(data)

    def test_unknown_solution_field_rejected(self):
        data = instance_to_json(gen_tightness_min(2, 4))
        data["solutions"][0]["note"] = 1
        with pytest.raises(InstanceFormatError):
            instance_from_json(data)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(direction="down"),
            lambda d: d.update(p=1),
            lambda d: d.update(p="2"),
            lambda d: d.update(kind="mystery"),
            lambda d: d.pop("solutions"),
            lambda d: d["solutions"][0].update(f=["1", "0"]),
            lambda d: d["solutions"][0].update(f=["1", "1/0"]),
            lambda d: d["solutions"][0].update(f=["1", "0.5"]),
        ],
    )
    def test_malformed_explicit_rejected(self, mutate):
        data = instance_to_json(gen_tightness_min(2, 4))
        mutate(data)
        with pytest.raises(InstanceFormatError):
            instance_from_json(data)

    def test_spanning_tree_source_target_optional(self):
        inst = gen_random_graph(4, 5, 2, 1, 2, seed=0, kind=GraphKind.SPANNING_TREE)
        data = instance_to_json(inst)
        assert "source" not in data
        parsed = instance_from_json(data)
        assert parsed.kind is GraphKind.SPANNING_TREE
        data["source"] = 0
        data["target"] = 3
        assert isinstance(instance_from_json(data), GraphInstance)

    def test_graph_semantic_errors_surface_as_format_errors(self):
        data = {
            "kind": "shortest-path",
            "direction": "min",
            "p": 2,
            "nodes": 3,
            "arcs": [{"from": 0, "to": 1, "cost": ["1", "1"]}],
            "source": 0,
            "target": 2,
        }
        with pytest.raises(InstanceFormatError):
            instance_from_json(data)


VALID_DOCUMENTS = [
    instance_to_json(gen_tightness_min(2, 4)),
    instance_to_json(gen_random_explicit(3, 3, 1, 5, seed=1, denominator=7)),
    instance_to_json(gen_random_graph(4, 5, 2, 1, 4, seed=3, kind=GraphKind.SHORTEST_PATH)),
    instance_to_json(gen_random_graph(4, 5, 2, 1, 4, seed=3, kind=GraphKind.SPANNING_TREE)),
]

# Values a JSON document can hold, biased toward near misses of the schema.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(
        ["1/0", "0", "-1", "0.5", "1e3", "nan", "2/3", " 7 ", "1/-2", "1" * 5000, "explicit"]
    ),
    st.lists(st.sampled_from(["1", "2", 1, None]), max_size=3),
    st.dictionaries(st.sampled_from(["id", "f", "from", "x"]), st.integers(0, 3), max_size=2),
)


def json_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from json_paths(value, prefix + (index,))


class TestJsonFuzz:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mutated_documents_raise_only_format_errors(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(VALID_DOCUMENTS)))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(json_paths(doc))))
            action = data.draw(st.sampled_from(["replace", "delete", "add"]))
            if not path:
                doc = data.draw(JUNK)
                continue
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            if action == "replace":
                parent[path[-1]] = data.draw(JUNK)
            elif action == "delete":
                del parent[path[-1]]
            elif isinstance(parent, dict):
                parent[data.draw(st.sampled_from(["note", "source", "id", "f"]))] = data.draw(JUNK)
            else:
                parent.append(data.draw(JUNK))
        try:
            instance_from_json(doc)
        except InstanceFormatError:
            pass


def explicit_documents():
    """Explicit instance documents of canonical literals, p = 2 or 3."""
    rows = st.integers(2, 3).flatmap(
        lambda p: st.lists(st.lists(rationals(1, 9), min_size=p, max_size=p), min_size=1, max_size=4)
    )
    return st.builds(
        lambda direction, rows: {
            "kind": "explicit",
            "direction": direction,
            "p": len(rows[0]),
            "solutions": [{"id": f"s{i}", "f": format_rationals(r)} for i, r in enumerate(rows)],
        },
        st.sampled_from(["min", "max"]),
        rows,
    )


GRAPH_DOCUMENTS = st.builds(
    lambda seed, kind: instance_to_json(gen_random_graph(4, 6, 2, 1, 4, seed, kind)),
    st.integers(0, 30),
    st.sampled_from(GraphKind),
)

# The literal limit the differential test lowers the int digit limit to, the
# least Python allows.
LOW_DIGIT_LIMIT = 640

# Spellings of a value.  The per-entry reader accepts the first nine and
# refuses the rest; of the nine, the package's one match of all literals
# takes "4/6" and the 640-digit run, and the others go through
# ``core.parse_rational`` one vector at a time.
SPELLINGS = [
    " 7", "7\n", "+7", "007", "7/004", "\u0663/4",
    "4/6", "1" * LOW_DIGIT_LIMIT, "1" * 400 + "/" + "3" * 400,
    "1/0", "1/\u0660", "0", "0/5", "-3/4", "1.5", "", "1 2", "1/", "1" * (LOW_DIGIT_LIMIT + 1),
    "0" * LOW_DIGIT_LIMIT + "1", 7, 1.5, True, None, ["1"],
]
# Values for an entry's id, tail or head.
FIELD_VALUES = ["", "s0", "\ud800", "n", 0, 3, 4, -1, True, None, 1.0]


def entry(items, draw):
    """One of the solutions or arcs that is still an object, or an empty dict."""
    objects = [item for item in items if isinstance(item, dict)]
    return draw(st.sampled_from(objects)) if objects else {}


def respell_literal(doc, items, key, draw):
    vector = entry(items, draw).get(key)
    if isinstance(vector, list) and vector:
        vector[draw(st.integers(0, len(vector) - 1))] = draw(st.sampled_from(SPELLINGS))


def resize_vector(doc, items, key, draw):
    vector = entry(items, draw).get(key)
    if isinstance(vector, list):
        vector.pop() if draw(st.booleans()) else vector.append("1")


def set_field(doc, items, key, draw):
    target = entry(items, draw)
    fields = sorted(set(target) - {key})
    if fields:
        target[draw(st.sampled_from(fields))] = draw(st.sampled_from(FIELD_VALUES))


def add_or_drop_key(doc, items, key, draw):
    target = doc if draw(st.booleans()) else entry(items, draw)
    if draw(st.booleans()):
        target["note"] = 1
    elif target:
        del target[draw(st.sampled_from(sorted(target)))]


def replace_entry(doc, items, key, draw):
    items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(["s1", ["1", "2"], None]))


def replace_vector(doc, items, key, draw):
    entry(items, draw)[key] = draw(st.sampled_from(["1/2", {"0": "1"}, None, ("1", "2")]))


FAULTS = [respell_literal, resize_vector, set_field, add_or_drop_key, replace_entry, replace_vector]


def outcome(load, doc):
    """What ``load`` makes of ``doc``: the instance, or the error's type and text."""
    try:
        return load(doc)
    except Exception as exc:
        return type(exc), str(exc)


# Fresh documents whose literals the package reads with one match.
PLAIN_DOCUMENTS = {
    "explicit": lambda: instance_to_json(gen_random_explicit(2, 3, 1, 9, seed=4)),
    "shortest-path": lambda: graph_json(),
}


class TestLoaderAgainstPerEntryReference:
    """The package's reader, one loop over the entries and one read of all
    their literals, against the reference loader that reads entry by entry."""

    @given(st.one_of(explicit_documents(), GRAPH_DOCUMENTS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_spellings_match_the_per_entry_loader(self, doc, data):
        self.check(doc, data, [respell_literal] * data.draw(st.integers(1, 2)))

    @given(st.one_of(explicit_documents(), GRAPH_DOCUMENTS), st.data())
    @settings(max_examples=300, deadline=None)
    def test_faults_match_the_per_entry_loader(self, doc, data):
        self.check(doc, data, data.draw(st.lists(st.sampled_from(FAULTS), max_size=2)))

    @pytest.mark.parametrize("spelling", SPELLINGS, ids=repr)
    @pytest.mark.parametrize("kind", ["explicit", "shortest-path"])
    def test_each_spelling_matches_the_per_entry_loader(self, kind, spelling):
        doc = PLAIN_DOCUMENTS[kind]()
        entries, key = (doc["solutions"], "f") if kind == "explicit" else (doc["arcs"], "cost")
        entries[-1][key][-1] = spelling
        self.check(doc, None, [])

    @pytest.mark.parametrize("value", FIELD_VALUES, ids=repr)
    @pytest.mark.parametrize("kind,field", [("explicit", "id"), ("shortest-path", "from"),
                                            ("shortest-path", "to")])
    def test_each_field_value_matches_the_per_entry_loader(self, kind, field, value):
        doc = PLAIN_DOCUMENTS[kind]()
        (doc["solutions"] if kind == "explicit" else doc["arcs"])[-1][field] = value
        self.check(doc, None, [])

    @staticmethod
    def check(doc, data, faults):
        """Apply ``faults`` to ``doc``; both loaders must then return the
        same instance or raise InstanceFormatError with the same text."""
        explicit = doc["kind"] == "explicit"
        items, key = (doc["solutions"], "f") if explicit else (doc["arcs"], "cost")
        for fault in faults:
            fault(doc, items, key, data.draw)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(LOW_DIGIT_LIMIT)
        try:
            ours = outcome(instance_from_json, doc)
            assert ours == outcome(instance_from_json_by_literals, doc)
        finally:
            sys.set_int_max_str_digits(limit)
        assert not isinstance(ours, tuple) or ours[0] is InstanceFormatError


class TestOneMatchVectors:
    """The vectors the one match of a document's literals builds without
    ``ObjectiveVector.__init__`` are the vectors that ``__init__`` builds."""

    @given(st.one_of(explicit_documents(), GRAPH_DOCUMENTS))
    @settings(max_examples=150, deadline=None)
    def test_each_vector_is_the_checked_vector_of_its_values(self, doc):
        explicit = doc["kind"] == "explicit"
        # the per-vector reader refuses: only the one match can read the file
        with mock.patch.object(instances, "_parse_positive_vector", side_effect=AssertionError):
            inst = instance_from_json(doc)
        entries = doc["solutions"] if explicit else doc["arcs"]
        vectors = [s.image for s in inst.solutions] if explicit else [a.cost for a in inst.arcs]
        assert len(vectors) == len(entries)
        for vector, entry in zip(vectors, entries):
            checked = ObjectiveVector(tuple(map(parse_rational, entry["f" if explicit else "cost"])))
            assert type(vector) is ObjectiveVector and type(vector.values) is tuple
            assert vector == checked and vector.values == checked.values
            assert hash(vector) == hash(checked) and repr(vector) == repr(checked)
            with pytest.raises(FrozenInstanceError):
                vector.values = checked.values


# Faults in an entry's structure, by document kind, each raised by the loop
# over the entries at the entry that holds it.
STRUCTURAL_FAULTS = {
    "explicit": {
        "missing key": lambda e: e.pop("f"),
        "empty id": lambda e: e.update(id=""),
        "short vector": lambda e: e["f"].pop(),
    },
    "shortest-path": {
        "bool tail": lambda e: e.update({"from": True}),
        "long vector": lambda e: e["cost"].append("1"),
        "extra key": lambda e: e.update(note=1),
    },
}


class TestFaultOrder:
    """Of a bad literal and a malformed entry, the one earlier in the file
    raises its error, whichever the reader checks first."""

    @pytest.mark.parametrize("literal_first", [True, False], ids=["literal-first", "entry-first"])
    @pytest.mark.parametrize(
        "kind,fault",
        [(kind, name) for kind, faults in STRUCTURAL_FAULTS.items() for name in faults],
    )
    def test_first_fault_in_file_order_is_raised(self, kind, fault, literal_first):
        def faulty(*where):
            doc = PLAIN_DOCUMENTS[kind]()
            entries, key = (doc["solutions"], "f") if kind == "explicit" else (doc["arcs"], "cost")
            if "literal" in where:
                entries[0 if literal_first else -1][key][0] = "1.5"
            if "entry" in where:
                STRUCTURAL_FAULTS[kind][fault](entries[-1 if literal_first else 0])
            return doc

        literal = outcome(instance_from_json, faulty("literal"))
        structural = outcome(instance_from_json, faulty("entry"))
        assert literal[0] is structural[0] is InstanceFormatError
        assert "1.5" in literal[1] and literal != structural
        both = outcome(instance_from_json, faulty("literal", "entry"))
        assert both == (literal if literal_first else structural)


# Characters json must escape or may pass through: quotes, backslashes,
# control characters, non-ASCII and lone surrogates.
JSON_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff"]),
        st.characters(exclude_categories=()),
    ),
    max_size=6,
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    JSON_TEXT,
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(JSON_TEXT, max_size=4),
        st.lists(st.integers(), max_size=4),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=4),
        st.dictionaries(JSON_TEXT, children, max_size=4),
        st.dictionaries(JSON_TEXT, st.one_of(st.integers(), st.booleans()), max_size=4),
    ),
    max_leaves=30,
)


class TestCanonicalDumps:
    @given(JSON_TREES)
    @settings(max_examples=400, deadline=None)
    # An int goes out in one piece; a bool, whose type is not int, still
    # prints true/false.
    @example([3, -1, 0, 10**40])
    @example({"n": 7, "z": -2, "big": 10**40})
    @example([1, True, 0, False])
    @example({"t": True, "one": 1, "f": False, "zero": 0, "none": None})
    @example([[1, 2], [], {"arcs": [4, 5], "ws_calls": 9, "ok": True}])
    def test_matches_json_dumps(self, payload):
        assert canonical_dumps(payload) == canonical_dumps_by_json(payload)

    @pytest.mark.parametrize(
        "payload",
        [{"a": Fraction(1)}, [1, {"b": {1, 2}}], object()],
        ids=["fraction", "set", "object"],
    )
    def test_unserializable_value_raises_as_json_does(self, payload):
        with pytest.raises(TypeError) as expected:
            canonical_dumps_by_json(payload)
        with pytest.raises(TypeError, match=re.escape(str(expected.value))):
            canonical_dumps(payload)

    @pytest.mark.parametrize("key", [1, None, (1, 2)])
    def test_non_str_key_raises(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            canonical_dumps({"a": [{key: 1}]})

    def test_rendered_text_is_written_at_its_own_depth(self):
        items = Rendered(1, ["[", "\n    1,", "\n    2", "\n  ]"])
        expected = canonical_dumps_by_json({"a": [1, 2], "b": "x"})
        assert canonical_dumps({"a": items, "b": "x"}) == expected
        assert canonical_dumps(Rendered(0, ["{}"])) == "{}\n"

    @pytest.mark.parametrize("payload", [
        Rendered(1, ["1"]), {"a": Rendered(2, ["1"])}, {"a": [Rendered(1, ["1"])]},
    ], ids=["top", "member", "item"])
    def test_rendered_text_is_refused_at_another_depth(self, payload):
        with pytest.raises(ValueError, match="rendered for depth"):
            canonical_dumps(payload)


@st.composite
def escaped_instances(draw):
    """Explicit instances at p = 2 or 3 whose ids are ``JSON_TEXT``, with
    quotes, backslashes, control and non-ASCII characters, and values of
    up to 30 digits."""
    p = draw(st.integers(2, 3))
    ids = draw(st.lists(JSON_TEXT.filter(bool), min_size=1, max_size=4, unique=True))
    value = st.builds(Fraction, st.integers(1, 10**30), st.integers(1, 10**6))
    images = st.lists(value, min_size=p, max_size=p).map(lambda v: ObjectiveVector(tuple(v)))
    solutions = map(Solution, ids, draw(st.lists(images, min_size=len(ids), max_size=len(ids))))
    return ExplicitInstance(draw(st.sampled_from(Direction)), p, tuple(solutions))


class TestInstanceText:
    """The one-pass writer against the canonical text of the reference
    document, alone and as a member at depth 1 and 2."""

    @given(st.one_of(
        escaped_instances(),
        explicit_instances(p=3),
        enumerable_graphs(GraphKind.SHORTEST_PATH),
        enumerable_graphs(GraphKind.SPANNING_TREE),
    ))
    @settings(max_examples=200, deadline=None)
    @example(ExplicitInstance(Direction.MIN, 2, (
        Solution('"q\\t\té\U0001f600', ObjectiveVector.of(1, "7/3")),
        Solution("s2", ObjectiveVector.of("10/7", 2)),
    )))
    def test_matches_the_reference_document(self, inst):
        doc = instance_to_json(inst)
        assert canonical_dumps(instance_text(inst, 0)) == canonical_dumps_by_json(doc)
        nested = {"instance": instance_text(inst, 1), "p": inst.p}
        assert canonical_dumps(nested) == canonical_dumps_by_json({"instance": doc, "p": inst.p})
        deeper = {"a": {"instance": instance_text(inst, 2)}}
        assert canonical_dumps(deeper) == canonical_dumps_by_json({"a": {"instance": doc}})


def graph_json(**changes):
    """A three-node shortest-path instance document with ``changes`` applied."""
    doc = {
        "kind": "shortest-path",
        "direction": "min",
        "p": 2,
        "nodes": 3,
        "source": 0,
        "target": 2,
        "arcs": [
            {"from": 0, "to": 1, "cost": ["1", "2"]},
            {"from": 1, "to": 2, "cost": ["2", "1"]},
        ],
    }
    return {**doc, **changes}


# Validation refusals: input, exception type, message fragment.
REFUSALS = [
    pytest.param(
        lambda: gen_max_counterexample(1, 4), ContractViolation, "M > 1", id="max-counterexample-p1"
    ),
    pytest.param(
        lambda: gen_random_explicit(2, 3, "1/3", "1/2", seed=0, denominator=1),
        ContractViolation,
        "no lattice point",
        id="explicit-empty-lattice",
    ),
    pytest.param(
        lambda: gen_random_graph(4, 5, 2, 2, 1, seed=0, kind=GraphKind.SHORTEST_PATH),
        ContractViolation,
        "cost_low <= cost_high",
        id="graph-cost-range",
    ),
    pytest.param(
        lambda: instance_from_json(graph_json(target=3)),
        InstanceFormatError,
        "node index below 3",
        id="json-target-out-of-range",
    ),
    pytest.param(
        lambda: instance_from_json(
            {"kind": "explicit", "direction": "min", "p": 2, "solutions": []}
        ),
        InstanceFormatError,
        "solutions must be a nonempty list",
        id="json-no-solutions",
    ),
    pytest.param(
        lambda: instance_from_json(graph_json(nodes=1)),
        InstanceFormatError,
        "nodes must be an integer >= 2",
        id="json-one-node",
    ),
    pytest.param(
        lambda: instance_from_json(graph_json(arcs=[])),
        InstanceFormatError,
        "arcs must be a nonempty list",
        id="json-no-arcs",
    ),
]


@pytest.mark.parametrize("build,error,fragment", REFUSALS)
def test_refuses_invalid_input(build, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        build()
