"""Instance generators and the strict JSON instance schema.

The two hand constructions (one minimization, one maximization) pit the
supported solutions against a single unsupported point and are the standard
stress inputs for the tightness and impossibility checks.  Random generators
draw values on a fixed-denominator lattice so downstream exact arithmetic
stays small, and are fully determined by their seed.

``instance_from_json`` reads a file's rationals in one pass: it collects
the literal strings of every solution or arc, checks them together (all
strs, one match of their joined text against a pattern of positive ASCII
literals with no sign, padding or leading zero, the longest within
``sys.get_int_max_str_digits()``), and hands each digit run to ``int``.
Any anomaly, in a literal or in an entry's structure, makes it read the
entries again one at a time with ``core.parse_rational``, so the first
fault in the file raises the same error, with the same message, as it
would alone.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any

from .core import (
    ContractViolation,
    Direction,
    ObjectiveVector,
    RationalLike,
    Record,
    as_rational,
    format_rationals,
    parse_rational,
)
from .solvers import (
    Arc,
    ExplicitInstance,
    GraphInstance,
    GraphKind,
    Instance,
    Solution,
)

SCHEMA_VERSION = 5

DEFAULT_LATTICE_DENOMINATOR = 1000

# Most rationals a generator builds: n * p, arcs * p or p * (p + 1).  At it,
# random-explicit --p 2 --n 150000, the costliest per value, took 4.7 s and
# 259 MB of peak RSS (2 vCPUs, Python 3.11); both grow linearly past it.
MAX_GENERATED_VALUES = 3 * 10**5


class InstanceFormatError(ValueError):
    """Instance JSON that does not match the schema."""


def is_utf8_text(text: str) -> bool:
    """Whether ``text`` has a UTF-8 form: JSON can hold lone surrogates, UTF-8 cannot."""
    return text.isascii() or not any("\ud800" <= ch <= "\udfff" for ch in text)


def _check_generated(values: int, *ints: int) -> None:
    """Refuse, before any draw, more than ``MAX_GENERATED_VALUES`` rationals, or
    ``ints``, the largest the instance prints, past ``sys.get_int_max_str_digits()``."""
    if values > MAX_GENERATED_VALUES:
        raise ContractViolation(f"{values} values are over the ceiling of {MAX_GENERATED_VALUES}")
    limit = sys.get_int_max_str_digits()  # 0: no limit; 10**limit > 2**(3 * limit)
    if limit and (big := max(map(abs, ints))).bit_length() > 3 * limit and big >= 10**limit:
        raise ContractViolation(f"the instance would print a value of more than {limit} digits")


def _axis_instance(
    direction: Direction, prefix: str, p: int, big_m: RationalLike, shift: int
) -> ExplicitInstance:
    """p axis points ``{prefix}j`` with M in their own coordinate and 1/p
    elsewhere, and ``{prefix}tilde`` at (M + shift)/p in every coordinate."""
    big_m = as_rational(big_m)
    if p < 2 or big_m <= 1:
        raise ContractViolation("need p >= 2 and M > 1")
    center = (big_m + shift) / p
    _check_generated(p * (p + 1), *big_m.as_integer_ratio(), *center.as_integer_ratio())
    off = Fraction(1, p)
    axes = (ObjectiveVector(tuple(big_m if i == j else off for i in range(p))) for j in range(p))
    solutions = [Solution(f"{prefix}{j + 1}", image) for j, image in enumerate(axes)]
    solutions.append(Solution(f"{prefix}tilde", ObjectiveVector((center,) * p)))
    return ExplicitInstance(direction, p, tuple(solutions))


def gen_tightness_min(p: int, big_m: RationalLike) -> ExplicitInstance:
    """Minimization instance whose unsupported point defeats any deficit bound.

    p axis points carry value M in their own coordinate and 1/p elsewhere;
    the extra point sits at (M+1)/p in every coordinate.  The axis points
    are supported, the extra point is nondominated but unsupported, and the
    ratio between them in the peak coordinate is p*M/(M+1).
    """
    return _axis_instance(Direction.MIN, "y", p, big_m, 1)


def gen_max_counterexample(p: int, big_m: RationalLike) -> ExplicitInstance:
    """Maximization instance where supported points fail the center by factor M.

    Same axis layout as the minimization construction but the extra point is
    at M/p per coordinate, so each supported point misses it by a ratio of
    exactly M in every coordinate other than its own peak.
    """
    return _axis_instance(Direction.MAX, "x", p, big_m, 0)


def _lattice_vector(
    rng: random.Random, p: int, low: Fraction, high: Fraction, denominator: int
) -> ObjectiveVector:
    """p uniform draws from the rationals k/denominator in [low, high]."""
    lo = math.ceil(low * denominator)
    hi = math.floor(high * denominator)
    if lo > hi:
        raise ContractViolation("value range contains no lattice point")
    return ObjectiveVector(tuple(Fraction(rng.randint(lo, hi), denominator) for _ in range(p)))


def gen_random_explicit(
    p: int,
    n: int,
    value_low: RationalLike,
    value_high: RationalLike,
    seed: int,
    denominator: int = DEFAULT_LATTICE_DENOMINATOR,
    direction: Direction = Direction.MIN,
) -> ExplicitInstance:
    """Seeded explicit instance with uniform lattice rationals as images."""
    low = as_rational(value_low)
    high = as_rational(value_high)
    if n < 1 or not 0 < low <= high:
        raise ContractViolation("need n >= 1 and 0 < value_low <= value_high")
    _check_generated(n * p, math.floor(high * denominator))
    rng = random.Random(seed)
    solutions = tuple(
        Solution(f"s{i + 1}", _lattice_vector(rng, p, low, high, denominator)) for i in range(n)
    )
    return ExplicitInstance(direction, p, solutions)


def gen_random_graph(
    node_count: int,
    arc_count: int,
    p: int,
    cost_low: RationalLike,
    cost_high: RationalLike,
    seed: int,
    kind: GraphKind,
    denominator: int = DEFAULT_LATTICE_DENOMINATOR,
) -> GraphInstance:
    """Seeded graph instance built from a random skeleton plus extra arcs.

    Shortest-path instances chain the source to the target through a random
    permutation of the interior nodes, so the target is always reachable;
    spanning-tree instances start from a random tree, so the graph is always
    connected.
    """
    low = as_rational(cost_low)
    high = as_rational(cost_high)
    if p < 2 or node_count < 2 or arc_count < node_count - 1:
        raise ContractViolation("need p >= 2, node_count >= 2 and arc_count >= node_count - 1")
    if not 0 < low <= high:
        raise ContractViolation("need 0 < cost_low <= cost_high")
    _check_generated(arc_count * p, math.floor(high * denominator))
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    if kind is GraphKind.SHORTEST_PATH:
        interior = list(range(1, node_count - 1))
        rng.shuffle(interior)
        chain = [0] + interior + [node_count - 1]
        pairs.extend((chain[i], chain[i + 1]) for i in range(node_count - 1))
    else:
        for i in range(1, node_count):
            pairs.append((rng.randrange(i), i))
    while len(pairs) < arc_count:
        tail = rng.randrange(node_count)
        head = rng.randrange(node_count)
        if tail != head:
            pairs.append((tail, head))
    arcs = tuple(
        Arc(tail, head, _lattice_vector(rng, p, low, high, denominator)) for tail, head in pairs
    )
    return GraphInstance(
        Direction.MIN, p, node_count, arcs, kind, source=0, target=node_count - 1
    )


class _Escapes(dict):
    """JSON string literal of each str looked up, escaped on first lookup."""

    def __missing__(self, text: str) -> str:
        escaped = self[text] = encode_basestring(text)
        return escaped


class Rendered(Record):
    """A value's canonical text in ``pieces``, already indented for
    ``depth``, the nesting depth of the value in its document (a member of
    the top-level object sits at depth 1)."""

    __slots__ = ("depth", "pieces")


def canonical_dumps(payload: Any) -> str:
    """Canonical JSON text: the bytes of ``json.dumps(payload, sort_keys=True,
    indent=2, ensure_ascii=False) + "\\n"``, written in one pass.

    With an indent, json runs its pure-Python encoder; this writer escapes
    each distinct string once per call, writes a str or int member of a dict
    in one piece with its key, and a list of only strs or only ints by one
    join.  Ints are tested by ``type(x) is int``, so bools still go through
    ``json.dumps`` and print ``true``/``false``.
    Scalars other than str and int go through ``json.dumps``; a dict key
    that is not a str raises TypeError.  A ``Rendered`` value is written as
    its pieces, and refused (ValueError) at any depth but its own.
    """
    escaped = _Escapes()
    out: list[str] = []
    write = out.append

    def value(v: Any, nl: str) -> None:
        t = type(v)
        if t is str:
            write(escaped[v])
        elif isinstance(v, dict):
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(v):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                x = v[key]
                if type(x) is str:  # most members of a report: one piece with the key
                    write(f"{sep}{escaped[key]}: {escaped[x]}")
                elif type(x) is int:  # not bool, which prints true/false
                    write(f"{sep}{escaped[key]}: {int.__repr__(x)}")
                else:
                    write(f"{sep}{escaped[key]}: ")
                    value(x, inner)
                sep = "," + inner
            write(nl + "}" if v else "{}")
        elif isinstance(v, (list, tuple)):
            inner = nl + "  "
            types = set(map(type, v))
            if types == {str}:
                write("[" + inner + ("," + inner).join([escaped[x] for x in v]) + nl + "]")
                return
            if types == {int}:
                write("[" + inner + ("," + inner).join(map(int.__repr__, v)) + nl + "]")
                return
            sep = "[" + inner
            for x in v:
                write(sep)
                value(x, inner)
                sep = "," + inner
            write(nl + "]" if v else "[]")
        elif t is int:
            write(int.__repr__(v))
        elif t is Rendered:
            if len(nl) != 1 + 2 * v.depth:
                raise ValueError(f"text rendered for depth {v.depth} met at depth {len(nl) // 2}")
            out.extend(v.pieces)
        else:
            write(json.dumps(v))

    value(payload, "\n")
    write("\n")
    return "".join(out)


def instance_to_json(inst: Instance) -> dict[str, Any]:
    explicit = isinstance(inst, ExplicitInstance)
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "explicit" if explicit else inst.kind.value,
        "direction": inst.direction.value,
        "p": inst.p,
    }
    if explicit:
        payload["solutions"] = [
            {"id": s.id, "f": format_rationals(s.image)} for s in inst.solutions
        ]
        return payload
    payload["nodes"] = inst.node_count
    payload["arcs"] = [
        {"from": a.tail, "to": a.head, "cost": format_rationals(a.cost)} for a in inst.arcs
    ]
    if inst.kind is GraphKind.SHORTEST_PATH:
        payload["source"] = inst.source
        payload["target"] = inst.target
    return payload


def _require_keys(data: dict, required: set[str], optional: set[str], what: str) -> None:
    keys = set(data)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise InstanceFormatError(f"{what}: missing fields {sorted(missing)}")
    if unknown:
        raise InstanceFormatError(f"{what}: unknown fields {sorted(unknown)}")


def _parse_positive_vector(values: Any, p: int, what: str) -> ObjectiveVector:
    if not isinstance(values, list) or len(values) != p:
        raise InstanceFormatError(f"{what}: expected a list of {p} rationals")
    try:
        return ObjectiveVector(tuple([parse_rational(v) for v in values]))
    except ContractViolation as exc:
        raise InstanceFormatError(f"{what}: {exc}") from exc


def _parse_index(value: Any, node_count: int, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < node_count:
        raise InstanceFormatError(f"{what}: expected a node index below {node_count}")
    return value


# The literals of a file joined by " ", each a positive rational in ASCII
# digits with no sign, padding or leading zero: "7" or "num/den".
_PLAIN_LITERALS = re.compile(r"[1-9][0-9]*(?:/[1-9][0-9]*)?(?: [1-9][0-9]*(?:/[1-9][0-9]*)?)*")
_SOLUTION_KEYS = frozenset(("id", "f"))
_ARC_KEYS = frozenset(("from", "to", "cost"))


def _plain_vectors(literals: list, p: int) -> list[ObjectiveVector] | None:
    """The vector of each ``p`` consecutive ``literals``, or None unless all
    of them are strs that ``_PLAIN_LITERALS`` matches and none is longer
    than ``sys.get_int_max_str_digits()``.  Such a literal passes every
    check of ``check_rational_literal``, so its digit runs go straight to
    ``int``; the pattern admits only ASCII, so no other script's digits
    reach it."""
    try:
        text = " ".join(literals)
    except TypeError:  # a literal that is not a str
        return None
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if (
        text.count(" ") != len(literals) - 1  # a literal holds a space
        or not _PLAIN_LITERALS.fullmatch(text)
        or (limit and max(map(len, literals)) > limit)
    ):
        return None
    values = []
    for literal in literals:
        numerator, _, denominator = literal.partition("/")
        values.append(
            Fraction(int(numerator), int(denominator)) if denominator else Fraction(int(numerator))
        )
    return [ObjectiveVector(tuple(values[i : i + p])) for i in range(0, len(values), p)]


def _solutions_in_one_pass(raw: list, p: int) -> list[Solution] | None:
    """The solutions of ``raw``, or None if any entry is not an object of a
    nonempty UTF-8 id and p values, or if ``_plain_vectors`` refuses them."""
    ids, literals = [], []
    for entry in raw:
        if not (isinstance(entry, dict) and entry.keys() == _SOLUTION_KEYS):
            return None
        sid, values = entry["id"], entry["f"]
        if not (isinstance(sid, str) and sid and isinstance(values, list) and len(values) == p):
            return None
        ids.append(sid)
        literals += values
    images = _plain_vectors(literals, p) if is_utf8_text("".join(ids)) else None
    return None if images is None else list(map(Solution, ids, images))


def _solutions_by_entries(raw: list, p: int) -> list[Solution]:
    """The solutions of ``raw``, each entry checked and read in turn, so the
    first fault in file order is the one raised."""
    solutions = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise InstanceFormatError("each solution must be an object")
        if entry.keys() != _SOLUTION_KEYS:  # one comparison; the call words the error
            _require_keys(entry, {"id", "f"}, set(), "solution")
        sid = entry["id"]
        if not (isinstance(sid, str) and sid and is_utf8_text(sid)):
            raise InstanceFormatError("solution id must be a nonempty string in UTF-8")
        solutions.append(Solution(sid, _parse_positive_vector(entry["f"], p, "solution image")))
    return solutions


def _arcs_in_one_pass(raw: list, p: int, nodes: int) -> list[Arc] | None:
    """The arcs of ``raw``, or None if any entry is not an object of two
    node indices below ``nodes`` and p values, or if ``_plain_vectors``
    refuses them."""
    ends, literals = [], []
    for entry in raw:
        if not (isinstance(entry, dict) and entry.keys() == _ARC_KEYS):
            return None
        tail, head, values = entry["from"], entry["to"], entry["cost"]
        # type() is int, not isinstance: a bool is no node index
        if not (
            type(tail) is int and 0 <= tail < nodes and type(head) is int and 0 <= head < nodes
            and isinstance(values, list) and len(values) == p
        ):
            return None
        ends.append((tail, head))
        literals += values
    costs = _plain_vectors(literals, p)
    return None if costs is None else [Arc(*end, cost) for end, cost in zip(ends, costs)]


def _arcs_by_entries(raw: list, p: int, nodes: int) -> list[Arc]:
    """The arcs of ``raw``, each entry checked and read in turn, so the
    first fault in file order is the one raised."""
    arcs = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise InstanceFormatError("each arc must be an object")
        if entry.keys() != _ARC_KEYS:
            _require_keys(entry, {"from", "to", "cost"}, set(), "arc")
        arcs.append(
            Arc(
                _parse_index(entry["from"], nodes, "arc tail"),
                _parse_index(entry["to"], nodes, "arc head"),
                _parse_positive_vector(entry["cost"], p, "arc cost"),
            )
        )
    return arcs


def instance_from_json(data: Any) -> Instance:
    """Parse an instance dict; unknown fields are rejected.

    The solutions or arcs are read in one pass when every entry and value
    is plain (see ``_plain_vectors``); at the first that is not, they are
    read again entry by entry, so a fault raises the error it would raise
    alone."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance JSON must be an object")
    kind = data.get("kind")
    if kind == "explicit":
        _require_keys(
            data,
            {"kind", "direction", "p", "solutions"},
            {"schema_version"},
            "explicit instance",
        )
    elif kind in (GraphKind.SHORTEST_PATH.value, GraphKind.SPANNING_TREE.value):
        required = {"kind", "direction", "p", "nodes", "arcs"}
        optional = {"schema_version", "source", "target"}
        if kind == GraphKind.SHORTEST_PATH.value:
            required |= {"source", "target"}
            optional -= {"source", "target"}
        _require_keys(data, required, optional, f"{kind} instance")
    else:
        raise InstanceFormatError(f"unknown instance kind {kind!r}")
    if data.get("direction") not in ("min", "max"):
        raise InstanceFormatError("direction must be 'min' or 'max'")
    direction = Direction(data["direction"])
    p = data.get("p")
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise InstanceFormatError("p must be an integer >= 2")

    try:
        if kind == "explicit":
            raw = data["solutions"]
            if not isinstance(raw, list) or not raw:
                raise InstanceFormatError("solutions must be a nonempty list")
            solutions = _solutions_in_one_pass(raw, p) or _solutions_by_entries(raw, p)
            return ExplicitInstance(direction, p, tuple(solutions))

        nodes = data["nodes"]
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 2:
            raise InstanceFormatError("nodes must be an integer >= 2")
        raw = data["arcs"]
        if not isinstance(raw, list) or not raw:
            raise InstanceFormatError("arcs must be a nonempty list")
        arcs = _arcs_in_one_pass(raw, p, nodes) or _arcs_by_entries(raw, p, nodes)
        graph_kind = GraphKind(kind)
        source = target = 0
        if graph_kind is GraphKind.SHORTEST_PATH:
            source = _parse_index(data["source"], nodes, "source")
            target = _parse_index(data["target"], nodes, "target")
        return GraphInstance(direction, p, nodes, tuple(arcs), graph_kind, source, target)
    except ContractViolation as exc:
        raise InstanceFormatError(str(exc)) from exc


def read_json(path: str, what: str) -> Any:
    """The JSON value in file ``path``; any failure to read or decode it
    raises InstanceFormatError naming ``what`` was being read."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    # ValueError: bad JSON, UTF-8 or digit count; RecursionError: deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        raise InstanceFormatError(f"cannot read {what} {path}: {exc}") from exc


def load_instance(path: str) -> Instance:
    return instance_from_json(read_json(path, "instance"))
