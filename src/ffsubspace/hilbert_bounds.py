"""Quantitative Hilbert-function bounds and the ratio threshold.

Everything here is exact integer/rational arithmetic on closed forms: the
Chardin upper bound, the Nesterenko-Sombra lower bound G(z), the power-sum
sandwich, the explicit lower bound for d*T(m/d-1) (T(t) the sum of G(i d)
for i = 1..t) as a polynomial in m, and the effective threshold a_eps past
which the ratio m(H(m)+1) / sum_{i<m/d} H(id) stays below d(n+1+eps) for
every variety with the given dimension and degree.

The threshold is extracted as a Cauchy root bound of an explicit difference
polynomial, so it is certified for ALL m >= a_eps with d | m, not just a
scanned window; `scan_ratio_window` double-checks the extraction on a
window.  Sums of G over a progression, there and in the constants ledger,
are `sombra_sum`, a closed form whose cost does not grow with the number
of terms.
"""

from fractions import Fraction
from math import comb, factorial, prod
from typing import NamedTuple

from .errors import InvariantViolated, MissingTableEntry, PreconditionViolated


def binom0(a: int, b: int) -> int:
    """Binomial with the convention C(a, b) = 0 whenever a < b."""
    if a < b or b < 0:
        return 0
    return comb(a, b)


def chardin_upper(m: int, n: int, delta: int) -> int:
    """Upper bound delta * C(m+n, n) for H_X(m), m >= 1."""
    return delta * comb(m + n, n)


def sombra_lower(m: int, n: int, delta: int) -> int:
    """Lower bound C(m+n+1, n+1) - C(m-delta+n+1, n+1) for H_X(m), m >= 1:
    the Hilbert function of a degree-delta hypersurface in P^{n+1}."""
    return hypersurface_hilbert(m, n + 1, delta)


def hypersurface_hilbert(m: int, ambient_dim: int, delta: int) -> int:
    """Exact H(m) of a degree-delta hypersurface in P^ambient_dim, any m >= 0."""
    M = ambient_dim
    return comb(m + M, M) - binom0(m - delta + M, M)


def progression_sum(f, t: int, degree: int) -> int:
    """f(1) + ... + f(t) for f with integer values at i >= 1 given there by a
    polynomial of degree at most `degree`, in closed form: the partial sums
    F(0), ..., F(degree + 1), and their Lagrange interpolant (F has degree
    at most degree + 1) evaluated at t over Fraction.  The work does not
    grow with t."""
    partial_sums = [0]
    for i in range(1, degree + 2):
        partial_sums.append(partial_sums[-1] + f(i))
    if t < len(partial_sums):
        return partial_sums[t]
    top = degree + 1
    # the Lagrange weight of node j at t: prod_{l != j} (t - l) / (j - l)
    full = prod(t - j for j in range(top + 1))
    total = sum(
        (Fraction(s * (full // (t - j)), (-1) ** (top - j) * factorial(j) * factorial(top - j))
         for j, s in enumerate(partial_sums)),
        Fraction(0),
    )
    if total.denominator != 1:
        raise InvariantViolated(f"the progression sum {total} is not an integer")
    return total.numerator


def sombra_sum(t: int, n: int, delta: int, d: int) -> int:
    """sum_{i=1}^t G(i d), G(z) = `sombra_lower`(z, n, delta), in closed form:
    the sum of C(i d + n + 1, n + 1) minus that of C(i d - delta + n + 1,
    n + 1) from the first i with i d >= delta, where the second binomial
    starts to count.  Each is a polynomial in i of degree n + 1, so the
    work grows with n only."""
    r = n + 1
    total = progression_sum(lambda i: comb(i * d + r, r), t, r)
    first = -(-delta // d)  # the least i with i d >= delta
    if t >= first:
        total -= progression_sum(
            lambda j: comb((first - 1 + j) * d - delta + r, r), t - first + 1, r
        )
    return total


def power_sum_bounds(k: int, l: int) -> tuple:
    """The sandwich ((l+1)^{k+1}/(k+1) - (l+1)^k/2, (l+1)^{k+1}/(k+1)) for
    the power sum S_k(l) = 1^k + ... + l^k."""
    upper = Fraction((l + 1) ** (k + 1), k + 1)
    lower = upper - Fraction((l + 1) ** k, 2)
    return lower, upper


def t_lower_coefficients(n: int, delta: int, d: int) -> dict:
    """Coefficients {power: value} of the explicit lower bound for d*T(m/d-1)."""
    return {
        n + 1: Fraction(delta, factorial(n + 1)),
        n: -Fraction(delta * d + delta * abs(n + 2 - delta), 2 * factorial(n)),
        n - 1: -Fraction((n + 1) ** 3 * (2 * delta) ** (n + 1)),
    }


def _poly_eval(coeffs: dict, m: int) -> Fraction:
    return sum((c * m**p for p, c in coeffs.items()), Fraction(0))


def T_lower_bound(m: int, n: int, delta: int, d: int) -> Fraction:
    """The polynomial lower bound for d*T(m/d - 1) at a multiple m of d, where
    T(t) = sum_{i=1}^t G(i d) and G(z) = `sombra_lower`(z, n, delta)."""
    if m % d != 0 or m < d:
        raise PreconditionViolated("need d | m and m >= d")
    return _poly_eval(t_lower_coefficients(n, delta, d), m)


def _cauchy_positive_bound(coeffs: dict) -> Fraction:
    """A bound B with poly(m) > 0 for all real m >= B (positive leading coeff)."""
    top = max(p for p, c in coeffs.items() if c != 0)
    lead = coeffs[top]
    if lead <= 0:
        raise InvariantViolated("Cauchy bound needs a positive leading coefficient")
    worst = max(
        (abs(c) / lead for p, c in coeffs.items() if p != top and c != 0),
        default=Fraction(0),
    )
    return 1 + worst


def _numerator_bound_coefficients(n: int, delta: int) -> dict:
    """Coefficients of delta*m*(m+n)^n/n! + m, an upper bound for m(H_X(m)+1).

    The extra +m absorbs the +1 in the numerator, which the binomial bound
    alone does not cover when n = 1.
    """
    coeffs = {1: Fraction(1)}
    for k in range(n + 1):
        coeffs[k + 1] = coeffs.get(k + 1, Fraction(0)) + Fraction(
            delta * comb(n, k) * n ** (n - k), factorial(n)
        )
    return coeffs


def threshold_a_eps(n: int, delta: int, d: int, epsilon) -> int:
    """An integer a_eps certified for every X of dimension n and degree delta:

    for all m >= a_eps with d | m,
        m (H_X(m) + 1) / sum_{i=1}^{m/d-1} H_X(i d)  <=  d (n + 1 + eps).

    Certification compares the Chardin numerator bound against the explicit
    T lower bound: their weighted difference is a univariate polynomial in m
    with positive leading coefficient, and a Cauchy root bound localizes
    where it (and the positivity of the denominator bound) is definitive.
    """
    eps = Fraction(epsilon)
    if n < 1 or delta < 1 or d < 1:
        raise PreconditionViolated("need n, delta, d >= 1")
    if eps <= 0:
        raise PreconditionViolated("need epsilon > 0")
    t_low = t_lower_coefficients(n, delta, d)
    diff = {p: (n + 1 + eps) * c for p, c in t_low.items()}
    for p, c in _numerator_bound_coefficients(n, delta).items():
        diff[p] = diff.get(p, Fraction(0)) - c
    bound = max(
        _cauchy_positive_bound(diff),
        _cauchy_positive_bound(t_low),
        Fraction(2 * d),
    )
    steps = -(-bound.numerator // (bound.denominator * d))  # ceil(bound / d)
    return int(d * steps)


class RatioCheck(NamedTuple):
    lhs: Fraction
    rhs: Fraction
    ok: bool


def _ratio(m: int, h_m: int, denominator: int, d: int, n: int, epsilon) -> RatioCheck:
    """m(H(m)+1)/denominator <= d(n+1+eps), exactly."""
    lhs = Fraction(m * (h_m + 1), denominator)
    rhs = d * (n + 1 + Fraction(epsilon))
    return RatioCheck(lhs, rhs, lhs <= rhs)


def ratio_check(H, m: int, d: int, n: int, epsilon) -> RatioCheck:
    """Exact check of m(H(m)+1)/sum_{i=1}^{m/d-1} H(id) <= d(n+1+eps)."""
    if m % d != 0 or m < 2 * d:
        raise PreconditionViolated("need d | m and m >= 2d")
    try:
        h_m, denominator = H[m], sum(H[i * d] for i in range(1, m // d))
    except KeyError as missing:
        raise MissingTableEntry(f"H table has no entry at degree {missing}") from None
    return _ratio(m, h_m, denominator, d, n, epsilon)


def scan_ratio_window(
    n: int, delta: int, d: int, epsilon, a_eps: int, window: int = 100
) -> bool:
    """Re-check the threshold at every multiple m of d in [a_eps, a_eps+window]
    against the extremal Hilbert function (the Sombra-equality hypersurface
    in P^{n+1}), whose H is G itself: the denominator
    sum_{i=1}^{m/d-1} G(id) starts as `sombra_sum` and runs over the window
    one G value per multiple of d.  Needs a_eps >= 2d."""
    first = -(-a_eps // d) * d  # the least multiple of d >= a_eps
    if first < 2 * d:
        raise PreconditionViolated("need a_eps >= 2d")
    denominator = sombra_sum(first // d - 1, n, delta, d)
    for m in range(first, a_eps + window + 1, d):
        h_m = hypersurface_hilbert(m, n + 1, delta)
        if not _ratio(m, h_m, denominator, d, n, epsilon).ok:
            return False
        denominator += h_m
    return True
