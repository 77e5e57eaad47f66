"""The acceptance gate: ten exact criteria, one pass/fail line each.

Every comparison is exact (tolerance zero); the two runtime budgets are the
only non-algebraic limits.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines.
"""

import functools
import json
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from ffsubspace.chow import (
    MultiHomForm,
    chow_height,
    chow_of_hypersurface,
    expand_skew,
    psigma_count_report,
)
from ffsubspace.cli import main as cli_main
from ffsubspace.effective_constants import (
    ConstantInputs,
    assemble_constants,
    b_const,
    excess_vanishing_power,
)
from ffsubspace.filtration import (
    build_filtration,
    exponent_sum,
    filtration_inequality_check,
    height_sandwich_check,
)
from ffsubspace.function_field import (
    INFINITY,
    Place,
    ProjectivePoint,
    RationalFunction,
    divisor,
    height_point,
    height_poly_family,
    weil,
)
from ffsubspace.graded_ideal import (
    IdealGenerators,
    check_subgeneral_position,
    hilbert_function,
    quotient_monomial_basis,
)
from ffsubspace.harness import emit_report, load_scenario, run_check
from ffsubspace.hilbert_bounds import (
    T_lower_bound,
    binom0,
    chardin_upper,
    power_sum_bounds,
    ratio_check,
    sombra_lower,
    threshold_a_eps,
)
from ffsubspace.multipoly import HomogeneousPoly, parse_poly
from helpers import rand_homog, rand_k, rand_point
from oracles import T_value, apply_skew_to_point, coefficient_bound_report, power_sum

T = RationalFunction.t()
CONIC = IdealGenerators.parse(3, ["X0*X2 - X1^2"])
CONIC_F = parse_poly("X0*X2 - X1^2", 3)
SCENARIO = Path(__file__).resolve().parents[1] / "src/ffsubspace/scenarios/conic.json"


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} [{label}]: FAIL")
                raise
            print(f"criterion {number:2d} [{label}]: PASS")

        return wrapper

    return decorate


@criterion(1, "sum formula, 500 random elements, < 2 s")
def test_criterion_01_sum_formula():
    rng = random.Random(1001)

    def rand_poly8():
        degree = rng.randint(0, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)]
        coeffs.append(rng.randint(1, 9) * rng.choice([1, -1]))
        return coeffs

    elements = [
        RationalFunction(rand_poly8(), rand_poly8()) for _ in range(500)
    ]
    start = time.perf_counter()
    for f in elements:
        assert sum(o * p.degree for p, o in divisor(f).items()) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"sum-formula sweep took {elapsed:.2f}s"


@criterion(2, "height and Weil gauge invariance, 100 random samples")
def test_criterion_02_gauge_invariance():
    rng = random.Random(1002)
    places = [Place.parse("t"), Place.parse("t-1"), Place.parse("t^2+2"), INFINITY]
    done = 0
    while done < 100:
        x = rand_point(rng, 3)
        q = rand_homog(rng, 3, rng.randint(1, 2))
        if q.evaluate(x).is_zero():
            continue
        alpha, beta = rand_k(rng), rand_k(rng)
        assert height_point(x.scaled(alpha)) == height_point(x)
        assert height_poly_family([q.scale(beta)]) == height_poly_family([q])
        p = places[done % len(places)]
        lam = weil(p, q, x)
        assert lam >= 0
        assert weil(p, q.scale(beta), x.scaled(alpha)) == lam
        done += 1


@criterion(3, "Hilbert functions: conic and hypersurface closed forms")
def test_criterion_03_hilbert():
    for m in range(1, 11):
        h = hilbert_function(CONIC, m)
        assert h == 2 * m + 1
        assert h == sombra_lower(m, 1, 2)
        assert h <= chardin_upper(m, 1, 2)
    for M in (1, 2, 3):
        nv = M + 1
        for delta in (1, 2, 3):
            fermat = " + ".join(f"X{i}^{delta}" for i in range(nv))
            gens = IdealGenerators.parse(nv, [fermat])
            for m in range(1, 9):
                assert hilbert_function(gens, m) == comb(m + M, M) - binom0(
                    m - delta + M, M
                )


@criterion(4, "power-sum sandwich, 1 <= k, l <= 25")
def test_criterion_04_power_sums():
    for k in range(1, 26):
        for l in range(1, 26):
            lower, upper = power_sum_bounds(k, l)
            s = power_sum(k, l)
            assert upper >= s >= lower
    assert power_sum(2, 3) == 14
    assert power_sum_bounds(2, 3) == (Fraction(40, 3), Fraction(64, 3))


@criterion(5, "ratio threshold and the T lower bound")
def test_criterion_05_ratio_proposition():
    # independent oracle: the exact conic ratio first drops to <= 3 at m = 3
    conic_h = {m: 2 * m + 1 for m in range(1, 600)}
    first = next(
        m
        for m in range(2, 50)
        if Fraction(m * (conic_h[m] + 1), sum(conic_h[i] for i in range(1, m)))
        <= 3
    )
    assert first == 3
    a = threshold_a_eps(1, 2, 1, 1)
    assert a >= 3
    for m in range(a, a + 101):
        assert ratio_check(conic_h, m, 1, 1, 1).ok
    for n in range(1, 4):
        for delta in range(1, 5):
            for d in range(1, 4):
                for m in range(d, 201, d):
                    assert d * T_value(m // d - 1, n, delta, d) >= T_lower_bound(
                        m, n, delta, d
                    )


@criterion(6, "Chow form, skew expansion, counts")
def test_criterion_06_chow():
    fx = chow_of_hypersurface(CONIC_F)
    assert fx.block_degree == 2
    expansion = expand_skew(fx)
    rng = random.Random(1006)
    for _ in range(10):
        x = ProjectivePoint([rand_k(rng, 1) for _ in range(3)])
        svals = [[rand_k(rng, 1) for _ in expansion.pairs] for _ in range(2)]
        us = [apply_skew_to_point(expansion.pairs, sv, x) for sv in svals]
        assert fx.evaluate(us) == expansion.reconstruct(svals, x)
    for k in range(25):
        s = T + k
        x = ProjectivePoint([1, s, s * s])
        assert all(p.evaluate(x).is_zero() for p in expansion.entries.values())
    off = ProjectivePoint([1, 0, 1])
    assert any(not p.evaluate(off).is_zero() for p in expansion.entries.values())
    # coefficient bound at every support place, exercised on a t-scaled variant
    terms = dict(fx.terms)
    key = max(terms)
    terms[key] = terms[key] * T
    poly = HomogeneousPoly(fx.poly.num_vars, fx.poly.degree, terms)
    scaled = MultiHomForm(fx.blocks, fx.vars_per_block, poly)
    report = coefficient_bound_report(scaled, expand_skew(scaled))
    assert report and all(ok for _, _, _, ok in report)
    counts = psigma_count_report(expansion)
    print(
        f"    sigma count report: {counts.stated_bound} (stated) vs "
        f"{counts.combinatorial_count} (combinatorial), actual {counts.actual_count}"
    )
    assert counts.stated_bound == 25 and counts.combinatorial_count == 36
    assert counts.actual_count <= 36


@criterion(7, "filtration exponent sums and the key inequality")
def test_criterion_07_filtration():
    p1 = IdealGenerators.of(2, ())
    basis = build_filtration(p1, 4, parse_poly("X0", 2))
    rep = exponent_sum(basis)
    assert rep.total == 10
    assert rep.total == hilbert_function(p1, 0) + sum(
        hilbert_function(p1, i) for i in range(1, 4)
    )
    assert rep.stated_sum == 9 and rep.difference == 1
    chk = filtration_inequality_check(Place.parse("t"), ProjectivePoint([T, 1]), basis)
    assert (chk.lhs, chk.rhs, chk.ok) == (10, 9, True)
    for gens, nv in ((p1, 2), (CONIC, 3)):
        q = parse_poly("X0", nv)
        for m in range(1, 7):
            fb = build_filtration(gens, m, q)
            assert fb.level_dims == tuple(
                hilbert_function(gens, m - i) for i in range(m + 1)
            )


@criterion(8, "monomial morphism height sandwich on the conic")
def test_criterion_08_lemma_c():
    h_fx = chow_height(chow_of_hypersurface(CONIC_F))
    m = 2
    b = b_const(max(m, 3, (1 + 1) * 2), 1, 2, 2)
    qb = quotient_monomial_basis(CONIC, m)
    samples = [T, T + 1, T - 2, T**2, T**3 + 1, (T + 1) / T, 1 / T,
               (T**2 + 1) / (T - 1), T**4, (T - 1) / (T + 1)]
    for s in samples:
        x = ProjectivePoint([1, s, s * s])
        rep = height_sandwich_check(qb, x, b, h_fx)
        assert m * height_point(x) >= rep.height_value
        assert rep.height_lower <= rep.height_value
        assert rep.ok


@criterion(9, "pinned effective constants")
def test_criterion_09_constants():
    assert b_const(4, 1, 2, 2) == 10_240_000_000_256
    assert excess_vanishing_power(1, 2, 2, 2, 1) == 4_738_381_338_321_616_896
    inputs = ConstantInputs(
        n=1, delta=2, M=2, N=2, q=4, d_i=(1, 1, 1, 1), epsilon=Fraction(1),
        s_card=2, s_degree=2, h_fx=Fraction(0), h_q_family=Fraction(0),
        h_q_i=(Fraction(0),) * 4, e_s_term=Fraction(0), c1=Fraction(0),
        c1_prime=Fraction(5), m=12,
    )
    table = {k: 2 * k + 1 for k in range(1, 13)}
    out = assemble_constants(inputs, table.get, sorted(table))
    assert out.b1 == 0 and out.b2 == 0 and out.b3 == 0 and out.c_eps == 0
    assert out.c_prime_eps == Fraction(2 * 5, out.S_sum)  # the c1' passthrough


@criterion(10, "end-to-end conic scenario")
def test_criterion_10_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    scenario = load_scenario(SCENARIO)
    report = run_check(scenario)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"scenario run took {elapsed:.2f}s"

    assert report.position.in_position and report.position.N == 2
    refute = check_subgeneral_position(scenario.variety.x_gens, scenario.divisors, 1)
    assert not refute.in_position
    assert (0, 1) in [s.indices for s in refute.failing_subsets()]

    first = report.points[0]
    assert first.height == 2 and first.lhs == 6 and first.rhs_main == 10
    for rec in report.points:
        assert rec.status == "evaluated"
        assert rec.lhs / rec.height <= 5
        assert rec.verdict == "InequalityHolds"

    assert cli_main(["check", str(SCENARIO), "--format", "json"]) == 0
    capsys.readouterr()

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(run_check(load_scenario(SCENARIO)), "json", path_a)
    emit_report(run_check(load_scenario(SCENARIO)), "json", path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    payload = json.loads(path_a.read_text())
    assert payload["points"][0]["lhs"] == "6/1"
