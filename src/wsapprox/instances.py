"""The instance model, its generators and its strict JSON schema.

An instance is an ``ExplicitInstance``, a list of (id, image) pairs, or a
``GraphInstance``, a digraph for shortest paths or an undirected graph for
spanning trees.  This module is the one place that defines them and the ids
of graph solutions, so the solvers and the oracles both take the model from
here and neither imports the other.

The two hand constructions (one minimization, one maximization) pit the
supported solutions against a single unsupported point and are the standard
stress inputs for the tightness and impossibility checks.  Random generators
draw values on a fixed-denominator lattice so downstream exact arithmetic
stays small, and are fully determined by their seed.

``instance_text`` is the one writer of an instance's canonical text, for
the file ``generate`` writes and for the ``instance`` every ``approximate``
report embeds.  It writes the text in one pass, each solution or arc by one
f-string, each value formatted once.  ``canonical_dumps`` writes every
output document by one plain walk and copies such pre-rendered text in by
its pieces.

``instance_from_json`` reads the solutions or arcs in one loop that checks
each entry's structure in file order and collects its literal strings.
``_vectors`` then reads all of them with one match of their joined text
against a pattern of positive ASCII literals (no sign, padding or leading
zero), the longest within ``sys.get_int_max_str_digits()``, and hands each
digit run to ``int``.  When that match fails, it reads vector after vector
with ``core.parse_rational``; when an entry is malformed, the literals of
the entries before it are read so first.  Either way the first fault in the
file raises the same error, with the same message, as it would alone.  The
vectors the match reads are stored without ``ObjectiveVector.__init__``,
whose checks the match and the loop have made.
"""

from __future__ import annotations

import json
import math
import random
import re
import sys
from collections import deque
from enum import Enum
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring
from typing import Any, Sequence, Union

from .core import (
    ContractViolation,
    Direction,
    ObjectiveVector,
    RationalLike,
    Record,
    as_rational,
    parse_rational,
)


class UnreachableTarget(ContractViolation):
    """Shortest-path instance whose target cannot be reached from the source."""


class DisconnectedGraph(ContractViolation):
    """Spanning-tree instance whose underlying graph is not connected."""


class Solution(Record):
    __slots__ = ("id", "image")


class ExplicitInstance(Record):
    """Feasible set given by an explicit list of (id, image) pairs."""

    __slots__ = ("direction", "p", "solutions")

    def __init__(self, direction: Direction, p: int, solutions: Sequence[Solution]) -> None:
        super().__init__(direction, p, tuple(solutions))
        if not self.solutions:
            raise ContractViolation("explicit instances must be nonempty")
        if any(len(s.image.values) != self.p for s in self.solutions):
            raise ContractViolation("solution image dimension differs from p")
        ids = [s.id for s in self.solutions]
        if len(set(ids)) != len(ids):
            raise ContractViolation("solution ids must be unique")

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.solutions)


class GraphKind(Enum):
    SHORTEST_PATH = "shortest-path"
    SPANNING_TREE = "spanning-tree"


class Arc(Record):
    __slots__ = ("tail", "head", "cost")


class GraphInstance(Record):
    """Digraph (shortest path) or undirected graph (spanning tree) instance.

    For SPANNING_TREE the arcs are read as undirected edges and source and
    target are ignored.
    """

    __slots__ = ("direction", "p", "node_count", "arcs", "kind", "source", "target")

    def __init__(
        self, direction: Direction, p: int, node_count: int, arcs: Sequence[Arc],
        kind: GraphKind, source: int = 0, target: int = 0,
    ) -> None:
        super().__init__(direction, p, node_count, tuple(arcs), kind, source, target)
        if self.node_count < 2:
            raise ContractViolation("graph instances need at least two nodes")
        if not self.arcs:
            raise ContractViolation("graph instances need at least one arc")
        for arc in self.arcs:
            if len(arc.cost.values) != self.p:
                raise ContractViolation("arc cost dimension differs from p")
            if not (0 <= arc.tail < self.node_count and 0 <= arc.head < self.node_count):
                raise ContractViolation("arc endpoint out of range")
        if self.kind is GraphKind.SHORTEST_PATH:
            if not 0 <= self.source < self.node_count or not 0 <= self.target < self.node_count:
                raise ContractViolation("source/target out of range")
            if self.source == self.target:
                raise ContractViolation("source and target must differ")
            if self.target not in self._reached(self.source, undirected=False):
                raise UnreachableTarget("target not reachable from source")
        elif len(self.arcs) < self.node_count - 1:
            # refused before _reached builds a list for every declared node
            raise DisconnectedGraph(
                f"spanning-tree instance has {len(self.arcs)} arcs, fewer than "
                f"nodes - 1 = {self.node_count - 1}, so it is not connected"
            )
        elif len(self._reached(0, undirected=True)) < self.node_count:
            raise DisconnectedGraph("spanning-tree instance is not connected")

    def _reached(self, start: int, undirected: bool) -> set[int]:
        """Nodes reachable from ``start`` along the arcs, or along the edges
        they form if ``undirected``.  Keyed by the nodes the arcs name, so
        the work is bounded by the arcs, not by ``node_count``."""
        successors: dict[int, list[int]] = {}
        for arc in self.arcs:
            successors.setdefault(arc.tail, []).append(arc.head)
            if undirected:
                successors.setdefault(arc.head, []).append(arc.tail)
        seen = {start}
        frontier = [start]
        while frontier:
            for head in successors.get(frontier.pop(), ()):
                if head not in seen:
                    seen.add(head)
                    frontier.append(head)
        return seen


Instance = Union[ExplicitInstance, GraphInstance]


# A graph solution's id is its kind's prefix and then its arc indices joined
# by ",": a path's in path order, a tree's in increasing order.
PATH_ID_PREFIX = "path:"
TREE_ID_PREFIX = "tree:"


def path_id(arc_indices: tuple[int, ...]) -> str:
    return PATH_ID_PREFIX + ",".join(map(str, arc_indices))


def tree_id(arc_indices: tuple[int, ...]) -> str:
    return TREE_ID_PREFIX + ",".join(map(str, sorted(arc_indices)))


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


class Rendered(Record):
    """A value's canonical text in ``pieces``, already indented for
    ``depth``, the nesting depth of the value in its document (a member of
    the top-level object sits at depth 1)."""

    __slots__ = ("depth", "pieces")


def canonical_dumps(payload: Any) -> str:
    """Canonical JSON text: the bytes of ``json.dumps(payload, sort_keys=True,
    indent=2, ensure_ascii=False) + "\\n"``, written by one plain walk.

    A str is escaped by ``encode_basestring`` and an int written by
    ``int.__repr__``; ints are tested by ``type(x) is int``, so bools go
    through ``json.dumps`` and print ``true``/``false``, as every other
    scalar does.  A dict is walked in sorted key order, and a key that is
    not a str raises TypeError; a list or tuple is walked item by item.  A
    ``Rendered`` value is copied in by its pieces, and refused (ValueError)
    at any depth but its own.
    """
    out: list[str] = []
    write = out.append

    def value(v: Any, nl: str) -> None:
        t = type(v)
        if t is str:
            write(encode_basestring(v))
        elif t is int:
            write(int.__repr__(v))
        elif isinstance(v, dict):
            inner = nl + "  "
            sep = "{" + inner
            for key in sorted(v):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                write(f"{sep}{encode_basestring(key)}: ")
                value(v[key], inner)
                sep = "," + inner
            write(nl + "}" if v else "{}")
        elif isinstance(v, (list, tuple)):
            inner = nl + "  "
            sep = "[" + inner
            for x in v:
                write(sep)
                value(x, inner)
                sep = "," + inner
            write(nl + "]" if v else "[]")
        elif t is Rendered:
            if len(nl) != 1 + 2 * v.depth:
                raise ValueError(f"text rendered for depth {v.depth} met at depth {len(nl) // 2}")
            out.extend(v.pieces)
        else:
            write(json.dumps(v))

    value(payload, "\n")
    write("\n")
    return "".join(out)


def instance_text(inst: Instance, depth: int) -> Rendered:
    """The canonical text of ``inst``'s document at ``depth``, written in
    one pass: the members ``schema_version``, ``kind``, ``direction``,
    ``p`` and ``solutions`` (``{"id", "f"}`` each) of an explicit instance,
    or ``nodes`` and ``arcs`` (``{"from", "to", "cost"}`` each) of a graph,
    and ``source`` and ``target`` of a shortest-path instance.

    Each solution or arc is one f-string, and each of its values is
    formatted once, by ``str``, which writes a Fraction as
    ``format_rational`` does."""
    nl = "\n" + "  " * depth
    member, entry, field, item = (nl + "  " * k for k in range(1, 5))
    join_values = f'",{item}"'.join  # a vector's values, quoted, one an item
    explicit = isinstance(inst, ExplicitInstance)
    # the members between "arcs" and "solutions" in sorted order, "nodes" aside
    direction_kind = f'"direction": "{inst.direction.value}",{member}"kind": ' + (
        '"explicit"' if explicit else f'"{inst.kind.value}"'
    )
    p_version = f'"p": {inst.p},{member}"schema_version": {SCHEMA_VERSION}'
    if explicit:
        solutions = f",{entry}".join([
            f'{{{field}"f": [{item}"{join_values(map(str, s.image.values))}"{field}],'
            f'{field}"id": {encode_basestring(s.id)}{entry}}}'
            for s in inst.solutions
        ])
        return Rendered(depth, [
            f'{{{member}{direction_kind},{member}{p_version},{member}"solutions": [{entry}',
            solutions,
            f"{member}]{nl}}}",
        ])
    arcs = f",{entry}".join([
        f'{{{field}"cost": [{item}"{join_values(map(str, a.cost.values))}"{field}],'
        f'{field}"from": {a.tail},{field}"to": {a.head}{entry}}}'
        for a in inst.arcs
    ])
    ends = (
        f',{member}"source": {inst.source},{member}"target": {inst.target}'
        if inst.kind is GraphKind.SHORTEST_PATH else ""
    )
    return Rendered(depth, [
        f'{{{member}"arcs": [{entry}',
        arcs,
        f'{member}],{member}{direction_kind},{member}"nodes": {inst.node_count},'
        f'{member}{p_version}{ends}{nl}}}',
    ])


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
_store_values = ObjectiveVector._setters[0]  # the ``values`` slot's ``__set__``


def _vectors(literals: list, p: int, what: str) -> list[ObjectiveVector]:
    """The vector of each ``p`` consecutive ``literals``.

    When all of them are strs that ``_PLAIN_LITERALS`` matches and none is
    longer than ``sys.get_int_max_str_digits()``, each passes every check
    of ``check_rational_literal``, so its digit runs go straight to
    ``int``; the pattern admits only ASCII, so no other script's digits
    reach it, and each vector is stored without ``ObjectiveVector.__init__``.
    Otherwise each vector is read by ``_parse_positive_vector`` in turn, so
    the first bad literal raises its error."""
    try:
        text = " ".join(literals)
    except TypeError:  # a literal that is not a str
        text = ""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if not (
        text.count(" ") == len(literals) - 1  # no literal holds a space
        and _PLAIN_LITERALS.fullmatch(text)
        and not (limit and max(map(len, literals)) > limit)
    ):
        return [_parse_positive_vector(literals[i : i + p], p, what)
                for i in range(0, len(literals), p)]
    values = []
    for literal in literals:
        numerator, _, denominator = literal.partition("/")
        values.append(
            Fraction(int(numerator), int(denominator)) if denominator else Fraction(int(numerator))
        )
    # Every value is a positive Fraction and the entry loop gave each vector
    # p >= 2 of them: ``__init__`` would check both again.
    images = list(zip(*[iter(values)] * p))
    vectors = list(map(object.__new__, repeat(ObjectiveVector, len(images))))
    deque(map(_store_values, vectors, images), maxlen=0)
    return vectors


def _solutions(raw: list, p: int) -> list[Solution]:
    """The solutions of ``raw``, each entry's structure checked in file
    order; a malformed entry raises only after the literals before it
    are read, so the first fault in the file is the one raised."""
    ids, literals = [], []
    try:
        for entry in raw:
            if not isinstance(entry, dict):
                raise InstanceFormatError("each solution must be an object")
            if entry.keys() != _SOLUTION_KEYS:  # one comparison; the call words the error
                _require_keys(entry, {"id", "f"}, set(), "solution")
            sid, values = entry["id"], entry["f"]
            if not (isinstance(sid, str) and sid and is_utf8_text(sid)):
                raise InstanceFormatError("solution id must be a nonempty string in UTF-8")
            if not (isinstance(values, list) and len(values) == p):
                raise InstanceFormatError(f"solution image: expected a list of {p} rationals")
            ids.append(sid)
            literals += values
    except InstanceFormatError:
        _vectors(literals, p, "solution image")
        raise
    return list(map(Solution, ids, _vectors(literals, p, "solution image")))


def _arcs(raw: list, p: int, nodes: int) -> list[Arc]:
    """The arcs of ``raw``, checked and read as ``_solutions`` reads
    solutions."""
    ends, literals = [], []
    try:
        for entry in raw:
            if not isinstance(entry, dict):
                raise InstanceFormatError("each arc must be an object")
            if entry.keys() != _ARC_KEYS:
                _require_keys(entry, {"from", "to", "cost"}, set(), "arc")
            tail = _parse_index(entry["from"], nodes, "arc tail")
            head = _parse_index(entry["to"], nodes, "arc head")
            values = entry["cost"]
            if not (isinstance(values, list) and len(values) == p):
                raise InstanceFormatError(f"arc cost: expected a list of {p} rationals")
            ends.append((tail, head))
            literals += values
    except InstanceFormatError:
        _vectors(literals, p, "arc cost")
        raise
    return [Arc(*end, cost) for end, cost in zip(ends, _vectors(literals, p, "arc cost"))]


def instance_from_json(data: Any) -> Instance:
    """Parse an instance dict; unknown fields are rejected, and the first
    fault in file order is the one raised."""
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
            solutions = _solutions(raw, p)
            return ExplicitInstance(direction, p, tuple(solutions))

        nodes = data["nodes"]
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 2:
            raise InstanceFormatError("nodes must be an integer >= 2")
        raw = data["arcs"]
        if not isinstance(raw, list) or not raw:
            raise InstanceFormatError("arcs must be a nonempty list")
        arcs = _arcs(raw, p, nodes)
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
