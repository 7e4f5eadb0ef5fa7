"""Complete elliptic integrals, with the cancellation-free ratios
(K-E)/x and ((2-x)K-2E)/x^2, and the Gauss hypergeometric series.

Argument convention
-------------------
Every function of ``x`` below takes the *parameter* m = x, i.e.
``ellip_k(x)`` integrates with modulus sqrt(x).  Conflating parameter
and modulus is the classic bug with these integrals; a caller holding
the modulus r passes r**2.

The production path is one pass of the arithmetic-geometric mean, which
converges quadratically (about five doublings to machine precision) and
yields K and the ratios P = (K-E)/x and T2 = ((2-x)K-2E)/x^2 together,
the ratios from a sum of positive terms with no series cut.  The sign
factors read only K, P and T2, through ``ellip_kpt``, so the pass skips
the E sum; ``_e_from`` forms E from the same pass only for ``ellip_e``
and ``legendre_residual``.  ``ellip_k``, the one function the inequality
grids call, runs the same recurrence in its own loop, without the P and
T2 sums: change the loops of ``ellip_kpt`` and ``ellip_k`` together.  A
test guards that ``ellip_k`` returns ``ellip_kpt(x)[0]`` bit for bit.
The hypergeometric series is kept as a second, independent route; the two
are required to agree to 1e-12 relative on (1e-6, 0.95).

All functions are pure, deterministic and safe to call concurrently.
"""

from __future__ import annotations

import math

PI = math.pi
LOG4 = math.log(4.0)

# Gamma(1/4) and Gamma(3/4), rounded to nearest double from the
# 40-digit values 3.625609908221908311930685155867672002995...
# and 1.225416702465177645129098303362890526851...
# Only these two irrational Gamma points are ever needed, so the
# constants are embedded instead of implementing a general Gamma.
# Reflection forces Gamma(1/4)*Gamma(3/4) = pi*sqrt(2), which the test
# suite checks against these literals.
GAMMA_QUARTER = 3.6256099082219083
GAMMA_THREE_QUARTER = 1.2254167024651776


class DomainError(ValueError):
    """Argument outside a function's domain."""


class ConvergenceError(RuntimeError):
    """A series failed to converge within its term cap."""


def require_unit_interval(x: float, what: str = "x") -> None:
    """Reject arguments outside the open interval (0, 1)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"{what} must lie in the open interval (0, 1); got {x!r}")


def ellip_kpt(x: float) -> tuple[float, float, float, float]:
    """(K, P, T2, tail) at 0 <= x < 1 in one AGM pass, P = (K-E)/x and
    T2 = ((2-x)K - 2E)/x^2; tail is the part of the T2 sum that E needs.
    The sign factors' kernel entry: no domain check, for callers that
    have checked 0 < x < 1 themselves.

    With a_0 = 1, b_0 = sqrt(1-x), c_{n+1} = (a_n - b_n)/2 = c_n^2/(4 a_{n+1})
    (Borwein & Borwein, *Pi and the AGM*, ch. 1), t_n = c_n/x and the
    positive-term sum S = sum_{n>=1} 2^n t_n^2:

        K = pi/(a+b),  P = K(1 + xS)/2,  T2 = KS,
        E = K(b_2^2 + c_1^2/2 - (x^2/2) tail),  tail = sum_{n>=3} 2^n t_n^2,

    where b_2^2 + c_1^2/2 = a_1^2 - 2 c_2^2 replaces the one step of the E
    sum that cancels badly as x -> 1.  The sign factors read only K, P and
    T2, so E is not formed here: ``_e_from`` forms it from K and tail for
    ``ellip_e`` and ``legendre_residual``.  t_{n+1} is (a_n - b_n)/(2x) while
    q > 1/2 (a_n, b_n far apart), and the recurrence after, which alone
    would double its relative error each step.  Stopping at
    c_n <= 1e-3 a_{n+1} leaves omitted terms below 1e-14 of the last one
    kept, and a, b within 3e-14 of each other.  ``ellip_k`` runs the a, b,
    q, t recurrence alone: change the two loops together.
    """
    y = math.sqrt(1.0 - x)                    # b_0
    t = 0.5 / (1.0 + y)                       # t_1
    a, b = 0.5 * (1.0 + y), math.sqrt(y)      # a_1, b_1
    d = a - b
    a, b = 0.5 * (a + b), math.sqrt(a * b)    # a_2, b_2
    q = x * t / a                             # c_1 / a_2
    head = 2.0 * t * t
    t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
    head += 4.0 * t * t
    pw = 4.0
    tail = 0.0                                # sum_{n>=3} 2^n t_n^2
    while q > 1e-3:                           # False for NaN: no hang
        d = a - b
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        q = x * t / a
        t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
        pw += pw
        tail += pw * t * t
    s = head + tail
    k = PI / (a + b)
    return k, 0.5 * k * (1.0 + x * s), k * s, tail


def _e_from(x: float, k: float, tail: float) -> float:
    """E from K and tail of ellip_kpt(x): its first step, same operations in
    the same order, gives b_2^2 + c_1^2/2, so E keeps every bit."""
    y = math.sqrt(1.0 - x)
    t = 0.5 / (1.0 + y)
    a, b = 0.5 * (1.0 + y), math.sqrt(y)
    e = a * b + 0.5 * x * x * t * t
    return k * (e - 0.5 * x * x * tail)


def ellip_k(x: float) -> float:
    """Complete integral of the first kind at parameter x, 0 <= x < 1.

    Strictly increasing, diverging like -log(1-x)/2 as x -> 1.
    Relative error is a few ulp across the domain.  The loop is the a, b,
    q, t recurrence of ``ellip_kpt`` without its P, T2 and tail sums, which
    never feed a, b, q or t, so the result is ``ellip_kpt(x)[0]`` to the bit.
    Change the two loops together.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"ellip_k requires 0 <= x < 1; got {x!r}")
    y = math.sqrt(1.0 - x)
    t = 0.5 / (1.0 + y)
    a, b = 0.5 * (1.0 + y), math.sqrt(y)
    d = a - b
    a, b = 0.5 * (a + b), math.sqrt(a * b)
    q = x * t / a
    t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
    while q > 1e-3:
        d = a - b
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        q = x * t / a
        t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
    return PI / (a + b)


def ellip_e(x: float) -> float:
    """Complete integral of the second kind at parameter x, 0 <= x <= 1.

    Strictly decreasing from pi/2 to 1.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"ellip_e requires 0 <= x <= 1; got {x!r}")
    if x == 1.0:
        return 1.0
    k, _p, _t2, tail = ellip_kpt(x)
    return _e_from(x, k, tail)


def hyp2f1(a: float, b: float, c: float, x: float, *,
           rel_tol: float = 1e-17, max_terms: int = 1_000_000) -> float:
    """Gauss hypergeometric series 2F1(a, b; c; x) for |x| < 1.

    Sums the defining series with the term recurrence
    t_{n+1} = t_n (a+n)(b+n) x / ((c+n)(1+n)), stopping once
    |t_n| < rel_tol * |partial sum|.  The term cap guards against the
    logarithmic divergence of parameter combinations like
    (1/2, 1/2; 1) turning into a hang near x = 1; where the cap provably
    cannot be met (``_cap_unreachable``) that ConvergenceError comes
    before any term is summed.  A partial sum that overflows or turns
    NaN raises ConvergenceError at once, also where a + b overflows.
    """
    if c <= 0.0 and c == math.floor(c):
        raise DomainError(f"lower parameter c={c!r} is zero or a negative integer")
    if not -1.0 < x < 1.0:
        raise DomainError(f"hyp2f1 series argument must satisfy |x| < 1; got {x!r}")
    term = 1.0
    total = 1.0
    # where the cap provably cannot be met, go straight to its error
    n = max_terms if _cap_unreachable(a, b, c, x, rel_tol, max_terms) else 0
    while n < max_terms:
        term *= (a + n) * (b + n) * x / ((c + n) * (1.0 + n))
        total += term
        n += 1
        if not math.isfinite(total):
            raise ConvergenceError(
                f"2F1({a}, {b}; {c}; {x}): non-finite partial sum {total} after {n} terms")
        if abs(term) < rel_tol * abs(total):
            return total
    raise ConvergenceError(
        f"2F1({a}, {b}; {c}; {x}) did not converge within {max_terms} terms")


def _cap_unreachable(a: float, b: float, c: float, x: float,
                     rel_tol: float, max_terms: int) -> bool:
    """True only where hyp2f1's stop test provably fails at every one of
    its max_terms terms, and its partial sums stay finite.

    For a, b, c > 0, c <= a + b and 0 < x < 1 every term t_n is positive
    and t_{n+1} >= t_n x n/(n+1), since (a+n)(b+n) - (c+n)n =
    ab + (a+b-c)n >= 0.  So t_n >= t_1 x^(n-1)/n and, for 1 <= j <= n,
    t_j <= t_n (n/j) x^(j-n), whence the partial sum
    S_n <= 1 + t_n n x^(1-n) (1 + ln n) and
    t_n/S_n >= 1/(n x^(1-n) (1/t_1 + 1 + ln n)), a bound that falls
    with n.  Where it stays above 2 rel_tol at n = max_terms, no term
    passes the stop test t_n < rel_tol S_n; the factor 2 covers the
    rounding of up to 10^12 computed terms.  xab <= c and
    x(a+b) <= c+1 keep every term ratio at most 1, so the sums stay
    finite and no other error comes first.  They are tested before the
    exact sum c - a - b, so that an a + b that overflows gives False,
    never fsum's OverflowError.
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0 and 0.0 < x < 1.0
            and x * a * b <= c and x * (a + b) <= c + 1.0
            and math.fsum((c, -a, -b)) <= 0.0        # c <= a + b, exactly
            and rel_tol > 0.0 and 1 <= max_terms <= 10**12):
        return False
    t1 = a * b * x / c
    if not t1 > 0.0:
        return False
    n = max_terms
    log_bound = math.log(n) - (n - 1) * math.log(x) + math.log(1.0 / t1 + 1.0 + math.log(n))
    return log_bound < -math.log(2.0 * rel_tol)


def legendre_residual(x: float) -> float:
    """E(x)K(1-x) + E(1-x)K(x) - K(x)K(1-x) - pi/2.

    Identically zero in exact arithmetic; a continuous self-test of the
    K/E kernel, expected below 1e-12 in magnitude on (0,1) wherever
    1 - x rounds below 1: for x <= 2**-54 it rounds to 1, where K is
    infinite, and DomainError is raised.
    """
    require_unit_interval(x, "legendre_residual")
    xc = 1.0 - x
    if xc == 1.0:
        raise DomainError(f"legendre_residual needs 1 - x < 1 in floating point, "
                          f"since K(1) is infinite; got x={x!r}")
    kx, _p, _t2, tx = ellip_kpt(x)
    kc, _p, _t2, tc = ellip_kpt(xc)
    ex, ec = _e_from(x, kx, tx), _e_from(xc, kc, tc)
    return ex * kc + ec * kx - kx * kc - 0.5 * PI
