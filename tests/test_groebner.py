"""The ideal machinery against Groebner bases: `hilbert_function` and the
position verdict of `has_common_projective_zero` on seeded ideals, compared
with `oracles.groebner_hilbert` and `oracles.groebner_empty`, which share no
code with the Macaulay matrices."""

import random

import pytest

from ffsubspace.function_field import RationalFunction
from ffsubspace.graded_ideal import (
    POSITION_CAP,
    IdealGenerators,
    has_common_projective_zero,
    hilbert_function,
    lazard_degree,
)
from ffsubspace.multipoly import HomogeneousPoly, monomial_basis
from oracles import groebner_empty, groebner_hilbert


def _random_ideal(rng, num_vars, degrees, t_coefficients):
    """M to M + 2 forms of a few terms each, of degrees drawn from `degrees`.
    About 40% of the ideals leave out every pure power of X0, so that
    [1 : 0 : ... : 0] is a common zero."""
    meet = rng.random() < 0.4
    gens = []
    for _ in range(rng.randint(num_vars - 1, num_vars + 1)):
        d = rng.choice(degrees)
        monomials = [m for m in monomial_basis(num_vars, d) if not (meet and m[0] == d)]
        terms = {}
        for mono in rng.sample(monomials, min(rng.randint(1, 4), len(monomials))):
            if t_coefficients:
                c = RationalFunction([rng.randint(-3, 3), rng.randint(-3, 3)])
                terms[mono] = c or RationalFunction(1)
            else:
                terms[mono] = rng.choice([-3, -2, -1, 1, 2, 3])
        gens.append(HomogeneousPoly(num_vars, d, terms))
    return IdealGenerators.of(num_vars, gens)


def _ideals():
    # over QQ in P^2 and P^3; t-dependent bases cost 30-50 ms, so only in P^2
    rng = random.Random(38)
    families = [(3, (1, 2, 3, 3), 20, False), (4, (1, 2, 2, 3), 20, False), (3, (1, 2, 2), 8, True)]
    return [
        _random_ideal(rng, num_vars, degrees, t)
        for num_vars, degrees, count, t in families
        for _ in range(count)
    ]


IDEALS = _ideals()


@pytest.mark.parametrize("index", range(len(IDEALS)))
def test_hilbert_function_matches_groebner(index):
    gens = IDEALS[index]
    for k in range(1, 6):
        assert hilbert_function(gens, k) == groebner_hilbert(gens, k), k


@pytest.mark.parametrize("index", range(len(IDEALS)))
def test_position_verdict_matches_groebner(index):
    gens = IDEALS[index]
    certified = has_common_projective_zero(gens).certified_empty
    if lazard_degree(gens) <= POSITION_CAP:
        assert certified == groebner_empty(gens)
    else:  # the walk stops at the cap: a certificate is still a proof
        assert not certified or groebner_empty(gens)


def test_the_seeded_ideals_cover_every_verdict():
    kinds = {
        (groebner_empty(g), lazard_degree(g) > POSITION_CAP,
         any(len(c.num) > 1 for f in g.generators for c in f.terms.values()))
        for g in IDEALS
    }
    assert {(True, False, False), (False, False, False), (False, True, False),
            (True, False, True), (False, False, True)} <= kinds
    assert any(groebner_empty(g) and lazard_degree(g) > POSITION_CAP for g in IDEALS)
