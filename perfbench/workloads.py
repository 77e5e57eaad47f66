"""Seeded scenario generators and their independent oracles.

Every workload is built from a variety with a known rational
parametrization.  Each point is the image of coprime integer polynomials,
so its primitive coordinates in Z[t] are known without running the checker.
The expected height, Weil table and inequality sides are then computed here
with sympy alone and compared with the report of the program under test.
The generator rejects points that lie on a divisor, so every point is
evaluated and no operation is expected to fail.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import sympy

T = sympy.Symbol("t")

CONIC_F = "X0*X2 - X1^2"
# The four lines of the bundled conic scenario: X0, X1, X2, X0 + X1 + X2.
CONIC_PLANES = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
CUBIC_GENS = ["X0*X2 - X1^2", "X1*X3 - X2^2", "X0*X3 - X1*X2"]
CUBIC_PLANES = [
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 1, 1, 0],
    [1, 1, 1, 1],
    [1, -1, 2, -3],
    [2, 1, -1, 1],
]


@dataclass
class Sizes:
    """Size knobs of one workload; the benchmark default and a toy size.

    Degrees follow a fixed pattern over the point index and only the
    coefficients are random, so every seed asks for about the same work.
    """

    points: int
    max_degree: int


SIZES = {
    "conic-points": {"full": Sizes(50, 3), "toy": Sizes(4, 2)},
    "ideal-session": {"full": Sizes(20, 3), "toy": Sizes(3, 2)},
}


@dataclass
class PointOracle:
    height: Fraction
    weil: list  # [(place text, [lambda per divisor])]
    lhs: Fraction
    rhs_main: Fraction


@dataclass
class Workload:
    name: str
    scenario: dict
    tasks: list  # argv lists for ffsubspace.cli.main; "{scenario}" is the file
    expected: list  # PointOracle per point


# --------------------------------------------------------------- polynomials


def _rand_poly(rng, degree):
    """Integer polynomial of exact degree with coefficients in [-9, 9]."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree)]
    coeffs.append(rng.choice([-1, 1]) * rng.randint(1, 9))
    return sympy.Poly(list(reversed(coeffs)), T, domain="ZZ")


def _coprime_pair(rng, f, deg_a, deg_b):
    """Coprime a = f * (random) of degree deg_a and random b of degree deg_b."""
    while True:
        a = f * _rand_poly(rng, deg_a - f.degree())
        b = _rand_poly(rng, deg_b)
        if a.gcd(b).degree() == 0:
            return a, b


def _place_factor(places, i, max_degree):
    """1 or a finite place of degree <= max_degree, cycling with the index i.

    Points whose coordinates carry a place's polynomial get nonzero Weil
    values there, so the oracles check more than zeros.
    """
    factors = [sympy.Poly(1, T, domain="ZZ")] + [
        p for _, p in places if p is not None and p.degree() <= max_degree
    ]
    return factors[i % len(factors)]


def _fmt(p) -> str:
    """A Z[t] polynomial in the checker's input grammar, highest degree first."""
    parts = []
    for (e,), c in sorted(p.terms(), reverse=True):
        c = int(c)
        mag = abs(c)
        body = "t" if e == 1 else f"t^{e}" if e else ""
        if body and mag != 1:
            body = f"{mag}*{body}"
        elif not body:
            body = str(mag)
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _fmt_scaled(p, r):
    """p * r as '(num)/(den)' for a rational function r = (rn, rd)."""
    rn, rd = r
    return f"({_fmt(p * rn)})/({_fmt(rd)})"


def _linear_form(coeffs) -> str:
    terms = []
    for j, c in enumerate(coeffs):
        if c:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            terms.append(("-" if c < 0 else "+", f"{mag}X{j}"))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        text += f" {sign} {body}"
    return text


# ------------------------------------------------------------------- oracles


def _order(f, place) -> int:
    """ord_p of a nonzero Z[t] polynomial; place is a monic sympy Poly or None."""
    if place is None:
        return -f.degree()
    k = 0
    while True:
        q, r = f.div(place)
        if not r.is_zero:
            return k
        f, k = q, k + 1


def _oracle(prim, planes, places, factor) -> PointOracle:
    """Expected height, Weil table and sides for primitive Z[t] coordinates.

    For coprime polynomial coordinates e_p(x) = 0 at finite places and
    e_inf(x) = -max deg.  The divisors are hyperplanes (d = 1) with constant
    coefficients, so e_p(Q) = 0 everywhere and lhs is the plain sum.
    """
    g = prim[0]
    for c in prim[1:]:
        g = g.gcd(c)
    if g.degree() != 0:
        raise AssertionError("generated coordinates are not coprime")
    h = max(c.degree() for c in prim if not c.is_zero)
    values = []
    for plane in planes:
        v = sum((c * x for c, x in zip(plane, prim)), sympy.Poly(0, T, domain="ZZ"))
        if v.is_zero:
            return None
        values.append(v)
    table, lhs = [], Fraction(0)
    for text, poly in places:
        row = []
        for v in values:
            if poly is None:
                lam = _order(v, None) + h
            else:
                lam = _order(v, poly) * poly.degree()
            row.append(Fraction(lam))
        table.append((text, row))
        lhs += sum(row, Fraction(0))
    return PointOracle(Fraction(h), table, lhs, factor * h)


def _places(texts):
    return [
        (text, None if text == "inf" else sympy.Poly(sympy.sympify(text.replace("^", "**")), T))
        for text in texts
    ]


def _hyperplane_divisors(planes):
    return [{"poly": _linear_form(c), "degree": 1} for c in planes]


# ---------------------------------------------------------------- workloads


def conic_points(rng, size: Sizes) -> Workload:
    """Points [a^2 r : a b r : b^2 r] on X0*X2 = X1^2, a and b coprime."""
    places = ["t", "t - 1", "t^2 + 1", "inf"]
    place_list = _places(places)
    N, eps = 2, Fraction(1)
    factor = N * (1 + 1) + eps
    points, expected = [], []
    while len(points) < size.points:
        i, deg = len(points), size.max_degree
        f = _place_factor(place_list, i, deg)
        a, b = _coprime_pair(rng, f, deg, deg - i % 2)
        prim = [a * a, a * b, b * b]
        orc = _oracle(prim, CONIC_PLANES, place_list, factor)
        if orc is None:
            continue
        r = (_rand_poly(rng, 2), _rand_poly(rng, 2))
        points.append([_fmt_scaled(c, r) for c in prim])
        expected.append(orc)
    scenario = {
        "ambient_dim": 2,
        "variety": {"kind": "hypersurface", "F": CONIC_F},
        "divisors": _hyperplane_divisors(CONIC_PLANES),
        "N": N,
        "places": places,
        "epsilon": str(eps),
        "points": points,
    }
    tasks = [["check", "{scenario}", "--format", "json"]]
    return Workload("conic-points", scenario, tasks, expected)


def twisted_cubic_chow() -> dict:
    """Chow form of the twisted cubic: Res_s(u0 . nu(s), u1 . nu(s)).

    nu(s) = (1, s, s^2, s^3) parametrizes the curve, so the resultant of the
    two cubics vanishes exactly when both hyperplanes u0, u1 meet it.
    """
    s = sympy.Symbol("s")
    u = [[sympy.Symbol(f"u{i}{j}") for j in range(4)] for i in range(2)]
    res = sympy.resultant(
        sum(u[0][j] * s**j for j in range(4)), sum(u[1][j] * s**j for j in range(4)), s
    )
    poly = sympy.Poly(res, *u[0], *u[1])
    terms = [
        {"exponents": [list(e[:4]), list(e[4:])], "coeff": str(int(c))}
        for e, c in sorted(poly.terms())
    ]
    return {"blocks": 2, "vars_per_block": 4, "terms": terms}


def check_cubic_planes():
    """Every 3 of the planes meet in one point, and it is off the curve."""
    for trio in itertools.combinations(CUBIC_PLANES, 3):
        kernel = sympy.Matrix(trio).nullspace()
        if len(kernel) != 1:
            raise AssertionError(f"planes {trio} are dependent")
        x = list(kernel[0])
        if all(g == 0 for g in (x[0] * x[2] - x[1] ** 2, x[1] * x[3] - x[2] ** 2, x[0] * x[3] - x[1] * x[2])):
            raise AssertionError(f"planes {trio} meet on the curve")


def ideal_session(rng, size: Sizes) -> Workload:
    """Points [1 : s : s^2 : s^3] on the twisted cubic with s = a/b."""
    check_cubic_planes()
    places = ["t", "t - 1", "inf"]
    place_list = _places(places)
    N, eps = 2, Fraction(1)
    factor = N * (1 + 1) + eps
    points, expected = [], []
    while len(points) < size.points:
        i = len(points)
        deg_a = 1 + i % size.max_degree
        f = _place_factor(place_list, i, deg_a)
        a, b = _coprime_pair(rng, f, deg_a, i % (size.max_degree + 1))
        prim = [b**3, a * b**2, a**2 * b, a**3]
        orc = _oracle(prim, CUBIC_PLANES, place_list, factor)
        if orc is None:
            continue
        s = f"({_fmt(a)})/({_fmt(b)})"
        points.append(["1", s, f"({s})^2", f"({s})^3"])
        expected.append(orc)
    scenario = {
        "ambient_dim": 3,
        "variety": {
            "kind": "ideal",
            "generators": CUBIC_GENS,
            "chow_form": twisted_cubic_chow(),
        },
        "divisors": _hyperplane_divisors(CUBIC_PLANES),
        "N": N,
        "places": places,
        "epsilon": str(eps),
        "points": points,
        "constants_overrides": {"hilbert_exact_cutoff": 16},
    }
    tasks = [
        ["chow", "--input", "{scenario}"],
        ["check", "{scenario}", "--format", "json"],
    ]
    return Workload("ideal-session", scenario, tasks, expected)


BUILDERS = {
    "conic-points": conic_points,
    "ideal-session": ideal_session,
}


def generate(name: str, seed: int, size: str = "full") -> Workload:
    rng = random.Random(f"{name}:{seed}")
    return BUILDERS[name](rng, SIZES[name][size])


# --------------------------------------------------------------- the checks


def check_report(workload: Workload, report: dict) -> list:
    """Compare one JSON report with the oracles; returns the problems found."""
    problems = []
    if not report["position"]["in_position"]:
        problems.append("position not certified")
    if len(report["points"]) != len(workload.expected):
        return problems + ["point count differs"]
    c_prime = Fraction(report["constants"]["c_prime_eps"])
    c_eps = Fraction(report["constants"]["c_eps"])
    for rec, orc in zip(report["points"], workload.expected):
        i = rec["index"]
        if rec.get("status") != "evaluated":
            problems.append(f"point {i}: status {rec.get('status')}")
            continue
        got = [(w["place"], [Fraction(v) for v in w["values"]]) for w in rec["weil"]]
        if Fraction(rec["height"]) != orc.height:
            problems.append(f"point {i}: height {rec['height']} != {orc.height}")
        if got != orc.weil:
            problems.append(f"point {i}: Weil table differs")
        lhs, rhs_main = Fraction(rec["lhs"]), Fraction(rec["rhs_main"])
        if lhs != orc.lhs or rhs_main != orc.rhs_main:
            problems.append(f"point {i}: sides differ")
        rhs_full = orc.rhs_main + c_prime
        if Fraction(rec["rhs_full"]) != rhs_full:
            problems.append(f"point {i}: rhs_full differs")
        if orc.lhs <= rhs_full:
            verdict = "InequalityHolds"
        elif orc.height <= c_eps:
            verdict = "HeightSmall"
        else:
            verdict = "Violation"
        if rec["verdict"] != verdict:
            problems.append(f"point {i}: verdict {rec['verdict']} != {verdict}")
    return problems


def expected_exit(report: dict) -> int:
    """The CLI exits 1 when a verdict is Violation (checked above), else 0."""
    return 1 if any(p.get("verdict") == "Violation" for p in report["points"]) else 0
