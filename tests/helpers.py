"""Shared sampling helpers for the test suite; everything is seeded."""

import sys
from contextlib import contextmanager
from pathlib import Path

from ffsubspace.function_field import ProjectivePoint, RationalFunction
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis


def workload_scenario(name: str, seed: int) -> dict:
    """The scenario dict the benchmark generates for a workload and seed."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    return workloads.generate(name, seed).scenario


@contextmanager
def int_digits_unlimited():
    """Lift the interpreter's limit on int-to-str digits inside the block
    only, so that a test can build its expected text; the code under test
    runs outside it."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def rand_qpoly(rng, max_degree=3, nonzero=True):
    """Random Z[t] coefficient tuple with small integer coefficients."""
    degree = rng.randint(0, max_degree)
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    lead = rng.randint(1, 9) * rng.choice([1, -1])
    coeffs.append(lead)
    if not nonzero and rng.random() < 0.1:
        return ()
    return tuple(coeffs)


def rand_k(rng, max_degree=3) -> RationalFunction:
    """Random nonzero element of Q(t)."""
    return RationalFunction(rand_qpoly(rng, max_degree), rand_qpoly(rng, max_degree))


def rand_point(rng, num_vars, max_degree=2) -> ProjectivePoint:
    coords = [rand_k(rng, max_degree) for _ in range(num_vars)]
    for i in range(num_vars):
        if rng.random() < 0.2 and sum(1 for c in coords if c) > 1:
            coords[i] = RationalFunction(0)
    return ProjectivePoint(coords)


def rand_homog(rng, num_vars, degree, max_terms=3) -> HomogeneousPoly:
    """Random nonzero homogeneous form with a few small-coefficient terms."""
    basis = monomial_basis(num_vars, degree)
    picks = rng.sample(range(len(basis)), min(max_terms, len(basis)))
    terms = {basis[i]: rand_k(rng, 1) for i in picks}
    return HomogeneousPoly(num_vars, degree, terms)
