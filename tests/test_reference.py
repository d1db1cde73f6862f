"""The references in ``tests/reference.py`` stay out of the package.

Each name below once shipped in ``wsapprox`` although only tests called it.
The package keeps one implementation of each job; a second, slow one
belongs next to the tests that compare against it.
"""

import pytest

import wsapprox
from wsapprox import algorithms, core, oracles, solvers

MOVED = [
    (solvers, "solve_explicit_exact"),
    (solvers, "solve_explicit_adversarial"),
    (solvers, "solve_shortest_path"),
    (solvers, "solve_spanning_tree"),
    (solvers, "_UnionFind"),
    (solvers, "_vector_sum"),
    (core, "multi_factor_witness"),
    (core, "covers"),
    (core.GuaranteeFamily, "contains"),
    (core.GuaranteeFamily, "disjunctive_biobjective"),
    (core.FactorVector, "le"),
    (core.Bounds, "contains"),
    (algorithms, "ptas_family"),
    (oracles, "_support_certificate_biobjective"),
]


IDS = [f"{owner.__name__.rsplit('.', 1)[-1]}.{name}" for owner, name in MOVED]


@pytest.mark.parametrize("owner,name", MOVED, ids=IDS)
def test_test_only_name_is_not_in_the_package(owner, name):
    assert not hasattr(owner, name)
    assert name not in wsapprox.__all__
