"""Integration coverage on a codimension-2 variety: the twisted cubic curve.

The Chow form is supplied as data (built here as the Sylvester resultant of
the two binary cubics u_i . [w^3, s w^2, s^2 w, s^3]), which is exactly the
user-supplied route the ideal scenario kind exists for.
"""

import hashlib
import itertools
import json

from ffsubspace import graded_ideal
from ffsubspace.chow import (
    MultiHomForm,
    chow_height,
    expand_skew,
    multihomform_to_json,
    psigma_count_report,
)
from ffsubspace.function_field import ProjectivePoint, RationalFunction
from ffsubspace.graded_ideal import IdealGenerators, hilbert_function
from ffsubspace.harness import load_scenario_dict, run_check
from ffsubspace.multipoly import HomogeneousPoly

K = RationalFunction
T = K.t()

CURVE_GENS = ["X0*X2 - X1^2", "X1*X3 - X2^2", "X0*X3 - X1*X2"]


def _parity(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _u_var(block, j):
    return HomogeneousPoly.variable(8, 4 * block + j)


def twisted_cubic_chow() -> MultiHomForm:
    """Resultant of u0.nu and u1.nu along the parametrization nu of the curve."""
    a = [_u_var(0, 3 - r) for r in range(4)]
    b = [_u_var(1, 3 - r) for r in range(4)]
    rows = []
    for shift in range(3):
        rows.append([None] * shift + a + [None] * (2 - shift))
    for shift in range(3):
        rows.append([None] * shift + b + [None] * (2 - shift))
    det = HomogeneousPoly.zero(8, 6)
    for perm in itertools.permutations(range(6)):
        entries = [rows[i][perm[i]] for i in range(6)]
        if any(e is None for e in entries):
            continue
        term = entries[0]
        for e in entries[1:]:
            term = term * e
        det = det + term.scale(_parity(perm))
    return MultiHomForm(2, 4, det)


def curve_point(s):
    return ProjectivePoint([K(1), s, s * s, s**3])


def test_chow_form_shape_and_vanishing():
    fx = twisted_cubic_chow()
    assert fx.block_degree == 3
    assert chow_height(fx) == 0
    # hyperplanes through [1, t, t^2, t^3] annihilate the form
    u0 = [T, -1, 0, 0]
    u1 = [0, T * T, 0, -1]
    assert fx.evaluate([u0, u1]).is_zero()
    # w^3 and s^3 share no root, so this pair does not
    assert not fx.evaluate([[1, 0, 0, 0], [0, 0, 0, 1]]).is_zero()


def test_expansion_cuts_out_the_curve():
    expansion = expand_skew(twisted_cubic_chow())
    for s in [T, T + 1]:
        values = expansion.values_at(curve_point(s))
        assert all(v.is_zero() for v in values.values())
    off = ProjectivePoint([K(1), K(0), K(0), K(1)])
    assert any(not v.is_zero() for v in expansion.values_at(off).values())
    rep = psigma_count_report(expansion)
    assert rep.actual_count <= rep.combinatorial_count == 3136
    assert rep.stated_bound == 7056


def test_expansion_digest():
    # sha256 of {str(sigma): str(P_sigma)} as sorted-key JSON, recorded from
    # the expansion over RationalFunction terms, before it ran over packed
    # integer keys
    expansion = expand_skew(twisted_cubic_chow())
    assert expansion.sigma_count == 2424
    text = {str(sigma): str(p) for sigma, p in expansion.entries.items()}
    assert hashlib.sha256(json.dumps(text, sort_keys=True).encode()).hexdigest() == (
        "fc5bb309fa87b8beac64b206996a0c17e6a3be33ca67d5799bb879bab10313b2"
    )
    assert list(expansion.entries) == sorted(expansion.entries)


def test_unchecked_psigma_equals_the_checked_build():
    # expand_skew wraps each P_sigma without the per-term checks; the checked
    # constructor must accept its terms unchanged
    expansion = expand_skew(twisted_cubic_chow())
    for p in expansion.entries.values():
        checked = HomogeneousPoly(p.num_vars, p.degree, p.terms)
        assert (checked.num_vars, checked.degree) == (4, 6) == (p.num_vars, p.degree)
        assert checked.terms == p.terms and checked == p
        assert all(type(c) is RationalFunction for c in p.terms.values())


def test_curve_hilbert_function():
    gens = IdealGenerators.parse(4, CURVE_GENS)
    # rational normal cubic: H(m) = 3m + 1
    for m in range(1, 7):
        assert hilbert_function(gens, m) == 3 * m + 1


def ideal_scenario_dict():
    return {
        "ambient_dim": 3,
        "variety": {
            "kind": "ideal",
            "generators": CURVE_GENS,
            "chow_form": multihomform_to_json(twisted_cubic_chow()),
        },
        "divisors": [
            {"poly": "X0", "degree": 1},
            {"poly": "X3", "degree": 1},
            {"poly": "X0 + X1 + X2 + X3", "degree": 1},
        ],
        "N": 1,
        "places": ["t", "inf"],
        "epsilon": "1",
        "points": [["1", "t", "t^2", "t^3"], ["1", "t^2", "t^4", "t^6"]],
    }


def test_ideal_scenario_end_to_end():
    report = run_check(load_scenario_dict(ideal_scenario_dict()))
    assert report.scenario.variety.dimension == 1 and report.scenario.variety.degree == 3
    assert report.position.in_position
    k1, k2 = report.points
    assert (k1.height, k1.lhs, k1.rhs_main) == (3, 6, 9)
    assert (k2.height, k2.lhs, k2.rhs_main) == (6, 12, 18)
    assert all(r.verdict == "InequalityHolds" for r in report.points)


def test_ideal_scenario_ranks_up_to_the_cutoff_and_bounds_above():
    # m = 578, d = 1, cutoff 12: S(m - 1) takes H(k) = 3k + 1 from ranks for
    # k <= 12 and Sombra's 3k above; H(m) is Chardin's 3(m + 1).  A divisor
    # with a t coefficient makes h(Q) and so b1 nonzero.
    scenario = ideal_scenario_dict()
    scenario["divisors"][2]["poly"] = "X0 + X1 + X2 + t*X3"
    report = run_check(load_scenario_dict(scenario))
    c, inputs = report.constants, report.inputs
    assert (c.m, inputs.d, report.scenario.hilbert_exact_cutoff) == (578, 1, 12)
    exact = sum(3 * k + 1 for k in range(1, 13))
    assert c.S_sum == exact + sum(3 * k for k in range(13, 578)) == 500271
    assert inputs.h_fx + inputs.h_q_family > 0
    assert c.b1 == (c.m + 1) * 3 * (c.m + 1) * c.b * (inputs.h_fx + inputs.h_q_family)


def test_ideal_scenario_ranks_stop_at_persistence(monkeypatch):
    # H(5) = 13^<4> certifies H = 3k + 1 from degree 4 on (Gotzmann), so the
    # exact values up to the cutoff need no piece of X's ideal above degree 5
    scenario = load_scenario_dict(ideal_scenario_dict())
    built = []
    real = graded_ideal.graded_piece

    def spy(gens, m):
        if gens == scenario.variety.x_gens:
            built.append(m)
        return real(gens, m)

    monkeypatch.setattr(graded_ideal, "graded_piece", spy)
    run_check(scenario)
    assert built and max(built) <= 5
