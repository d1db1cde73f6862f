"""Names that left the package stay out of it.

Each name below once shipped in ``wsapprox`` although no package code
called it, or was a second way to do a job the package does.  The package
keeps one implementation of each job: a second, slow one belongs next to
the tests that compare against it in ``tests/reference.py``, and a wrapper
whose callers can call what it wraps, or a narrower check of what a general
one decides, is deleted outright.
"""

import pytest

import wsapprox
from wsapprox import algorithms, cli, core, instances, oracles, solvers

MOVED = [
    (solvers, "solve_explicit_exact"),
    (solvers, "solve_explicit_adversarial"),
    (solvers, "solve_shortest_path"),
    (solvers, "solve_spanning_tree"),
    (solvers, "_UnionFind"),
    (solvers, "_vector_sum"),
    (core, "multi_factor_witness"),
    (core, "covers"),
    (core, "dominates"),
    (core.GuaranteeFamily, "contains"),
    (core.GuaranteeFamily, "disjunctive_biobjective"),
    (core.FactorVector, "le"),
    (core.Bounds, "contains"),
    (core.Bounds, "of"),
    (instances.ExplicitInstance, "image_of"),
    (instances, "instance_to_json"),
    (algorithms, "ptas_family"),
    (oracles, "_support_certificate_biobjective"),
    (oracles, "supported_set"),
    (oracles, "verify_max_impossibility"),
    (cli, "_answer_json"),
]


IDS = [f"{owner.__name__.rsplit('.', 1)[-1]}.{name}" for owner, name in MOVED]


@pytest.mark.parametrize("owner,name", MOVED, ids=IDS)
def test_test_only_name_is_not_in_the_package(owner, name):
    assert not hasattr(owner, name)
    assert name not in wsapprox.__all__
