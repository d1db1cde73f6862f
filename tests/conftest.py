"""Shared hypothesis strategies: small exact rationals, explicit instances
and enumerable graphs; and ``time_limit``, which turns a run that never
returns into a failure."""

import contextlib
import itertools
import signal
from fractions import Fraction

import hypothesis.strategies as st

from wsapprox import (
    Arc,
    Direction,
    ExplicitInstance,
    GraphInstance,
    ObjectiveVector,
    Solution,
    WeightVector,
    gen_random_graph,
)

from reference import image_of, pairwise_front

LATTICE = 12  # small denominator keeps downstream exact arithmetic cheap


@contextlib.contextmanager
def time_limit(seconds, overtime):
    """Raise the exception ``overtime`` in the enclosed block once it has run
    ``seconds``."""

    def alarm(signum, frame):
        raise overtime

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def rationals(low=1, high=8, denominator=LATTICE):
    return st.integers(low * denominator, high * denominator).map(
        lambda n: Fraction(n, denominator)
    )


def objective_vectors(p=2, low=1, high=8):
    return st.lists(rationals(low, high), min_size=p, max_size=p).map(
        lambda vs: ObjectiveVector(tuple(vs))
    )


def weight_vectors(p=2, low=1, high=8):
    return st.lists(rationals(low, high), min_size=p, max_size=p).map(
        lambda vs: WeightVector(tuple(vs))
    )


@st.composite
def explicit_instances(draw, p=2, min_n=1, max_n=10, direction=Direction.MIN, low=1, high=8):
    n = draw(st.integers(min_n, max_n))
    images = draw(st.lists(objective_vectors(p, low, high), min_size=n, max_size=n))
    solutions = tuple(Solution(f"s{i + 1}", img) for i, img in enumerate(images))
    return ExplicitInstance(direction, p, solutions)


@st.composite
def clustered_instances(draw, p=2, direction=Direction.MIN, max_n=9):
    """Instances whose images repeat and crowd together.

    Every image is one of a few base images plus a nudge of 0, 1/12, 1/3 or
    5/6 per objective, so exact repeats are common and many images dominate
    another one by a gap below 1.
    """
    pool = draw(st.lists(objective_vectors(p, 1, 6), min_size=1, max_size=4))
    nudge = st.lists(
        st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 12), Fraction(1, 3), Fraction(5, 6)]),
        min_size=p,
        max_size=p,
    )
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), nudge), min_size=1, max_size=max_n))
    solutions = tuple(
        Solution(f"s{i + 1}", ObjectiveVector(tuple(v + d for v, d in zip(base, shift))))
        for i, (base, shift) in enumerate(picks)
    )
    return ExplicitInstance(direction, p, solutions)


# p = 2, both directions; half the instances are clustered.
biobjective_instances = st.sampled_from(list(Direction)).flatmap(
    lambda d: st.one_of(
        explicit_instances(p=2, max_n=8, direction=d),
        clustered_instances(p=2, direction=d),
    )
)


# p = 2 and 3, both directions; half the instances are clustered.
any_instances = st.tuples(st.sampled_from([2, 3]), st.sampled_from(list(Direction))).flatmap(
    lambda pd: st.one_of(
        explicit_instances(p=pd[0], max_n=8, direction=pd[1]),
        clustered_instances(p=pd[0], direction=pd[1]),
    )
)


@st.composite
def with_front_midpoint(draw, instances):
    """Instances from ``instances``; about half of them get one more solution,
    id "mid", at the midpoint of two distinct front images.

    A weight that makes the midpoint optimal makes both ends optimal too, so
    a supported midpoint is always weakly supported.  Weak certificates,
    rare in the plain strategies, become common.
    """
    inst = draw(instances)
    front = sorted({image_of(inst, i).values for i in pairwise_front(inst)})
    if len(front) < 2 or not draw(st.booleans()):
        return inst
    a, b = draw(st.sampled_from(list(itertools.combinations(front, 2))))
    mid = ObjectiveVector(tuple((x + y) / 2 for x, y in zip(a, b)))
    return ExplicitInstance(inst.direction, inst.p, inst.solutions + (Solution("mid", mid),))


@st.composite
def enumerable_graphs(draw, kind):
    """Small random graphs of ``kind`` at p = 2 or 3, MIN or MAX, plus up to
    three arcs that may repeat an arc's ends or be self-loops, all in
    shuffled order.  Every arc cost comes from a pool of one to three
    vectors, so equal images, and ties between them, are common."""
    p = draw(st.sampled_from([2, 3]))
    nodes = draw(st.integers(2, 6))
    arc_count = draw(st.integers(nodes - 1, 2 * nodes))
    base = gen_random_graph(nodes, arc_count, p, 1, 3, draw(st.integers(0, 10**6)), kind)
    cost = st.sampled_from(draw(st.lists(objective_vectors(p, 1, 3), min_size=1, max_size=3)))
    node = st.integers(0, nodes - 1)
    arcs = [Arc(arc.tail, arc.head, draw(cost)) for arc in base.arcs]
    arcs += draw(st.lists(st.builds(Arc, node, node, cost), max_size=3))
    order = draw(st.permutations(range(len(arcs))))
    direction = draw(st.sampled_from(list(Direction)))
    return GraphInstance(
        direction, p, nodes, tuple(arcs[i] for i in order), kind, base.source, base.target
    )
