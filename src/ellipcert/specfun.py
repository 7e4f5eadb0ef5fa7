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
factors read only K, P and T2, through ``ellip_kpt``, which runs the pass
inline over a list of points and returns their columns, so a batch of a
scan is one call; the pass skips the E sum, and ``ellip_e`` alone forms
E from it, one point a call; ``legendre_residual`` reads ``ellip_e``.
The inequality grids read the K column of ``ellip_k_column``, which runs
the same recurrence inline over a list of points without the P and T2
sums, and, with mirror=True where a bound pairs r with 1 - r, also reads
K(1 - x) off the nome of the last Landen step; ``ellip_k`` is a one-point
call of ``ellip_k_column``.  Each of the two loops runs in two phases.
While the ratio q_n = c_n/a_{n+1} exceeds 1/2, the next c comes from the
difference (a_n - b_n)/2.  After, it comes from the recurrence
c_{n+1} = c_n^2/(4 a_{n+1}) with no test: q_{n+1} = q_n^2 a_{n+1}/(4 a_{n+2})
<= q_n^2/2, as a_{n+1} <= 2 a_{n+2}, so every later q is at most 1/8.
Change the two loops of ``ellip_kpt`` and ``ellip_k_column`` together:
tests guard that their K columns agree bit for bit.
The hypergeometric series is kept as a second, independent route; the two
are required to agree to 1e-12 relative on (1e-6, 0.95).

All functions are pure, deterministic and safe to call concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

PI = math.pi
LOG4 = math.log(4.0)
_LOG16 = math.log(16.0)

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


def require_unit_interval(x: float, what: str) -> None:
    """Reject arguments outside the open interval (0, 1)."""
    if not 0.0 < x < 1.0:
        raise DomainError(f"{what} must lie in the open interval (0, 1); got {x!r}")


def ellip_kpt(xs: Iterable[float]) -> tuple[list[float], list[float], list[float], list[float]]:
    """The columns K, P, T2 and tail over xs, 0 <= x < 1, from one AGM pass
    per point, P = (K-E)/x and T2 = ((2-x)K - 2E)/x^2; tail is the part of
    the T2 sum that E needs.  The sign factors' kernel entry: no domain
    check, for callers that have checked 0 < x < 1 themselves.

    With a_0 = 1, b_0 = sqrt(1-x), c_{n+1} = (a_n - b_n)/2 = c_n^2/(4 a_{n+1})
    (Borwein & Borwein, *Pi and the AGM*, ch. 1), t_n = c_n/x and the
    positive-term sum S = sum_{n>=1} 2^n t_n^2:

        K = pi/(a+b),  P = K(1 + xS)/2,  T2 = KS,
        E = K(b_2^2 + c_1^2/2 - (x^2/2) tail),  tail = sum_{n>=3} 2^n t_n^2,

    where b_2^2 + c_1^2/2 = a_1^2 - 2 c_2^2 replaces the one step of the E
    sum that cancels badly as x -> 1.  The sign factors read only K, P and
    T2, so E is not formed here: ``ellip_e`` forms it from K and tail, and
    ``legendre_residual`` reads ``ellip_e``.  With q = q_n = c_n/a_{n+1}, the
    loop runs in two phases.  While q > 1/2 (a_n, b_n far apart), t_{n+1}
    is (a_n - b_n)/(2x), since the recurrence t_{n+1} = q t_n/4 alone would
    double its relative error each step.  Once q <= 1/2 it stays below 1/8,
    since q_{n+1} = q_n^2 a_{n+1}/(4 a_{n+2}) <= q_n^2/2, so the second
    phase takes the recurrence with no test and forms no difference; each
    step is the one-phase loop's step to the bit.  Stopping at
    c_n <= 1e-3 a_{n+1} leaves omitted terms below 1e-14 of the last one
    kept, and a, b within 3e-14 of each other.  The loop runs inline once
    per point, so a batch of points costs one call.  ``ellip_k_column`` runs
    the a, b, q, t recurrence alone: change the two loops together.
    """
    ks, ps, t2s, tails = [], [], [], []
    sqrt = math.sqrt                              # a local name: called ~5 times a point
    for x in xs:
        y = sqrt(1.0 - x)                         # b_0
        u = 1.0 + y
        t = 0.5 / u                               # t_1
        a, b = 0.5 * u, sqrt(y)                   # a_1, b_1
        d = a - b
        a, b = 0.5 * (a + b), sqrt(a * b)         # a_2, b_2
        q = x * t / a                             # c_1 / a_2
        head = 2.0 * t * t
        t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
        head += 4.0 * t * t
        pw = 4.0
        tail = 0.0                                # sum_{n>=3} 2^n t_n^2
        while q > 0.5:                            # False for NaN: no hang
            d = a - b
            a, b = 0.5 * (a + b), sqrt(a * b)
            q = x * t / a
            t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
            pw += pw
            tail += pw * t * t
        while q > 1e-3:                           # q <= 1/2, so each next q <= 1/8
            a, b = 0.5 * (a + b), sqrt(a * b)
            q = x * t / a
            t = 0.25 * q * t
            pw += pw
            tail += pw * t * t
        s = head + tail
        k = PI / (a + b)
        ks.append(k)
        ps.append(0.5 * k * (1.0 + x * s))
        t2s.append(k * s)
        tails.append(tail)
    return ks, ps, t2s, tails


def ellip_k_column(xs: Iterable[float], mirror: bool = False
                   ) -> list[float] | tuple[list[float], list[float]]:
    """K over xs, 0 <= x < 1, from one AGM pass per point, with no domain
    check; with mirror=True, the columns (K(x), K(1 - x)) over xs,
    0 < x < 1, for the bounds that pair r with the exact 1 - r.

    The loop is the a, b, q, t recurrence of ``ellip_kpt`` without its P,
    T2 and tail sums, which never feed a, b, q or t, so each K is
    ``ellip_kpt``'s K to the bit; change the two loops together.  It runs
    in the same two phases: t_{n+1} = (a_n - b_n)/(2x) while q > 1/2, then
    t_{n+1} = q t_n/4 with no test, as q_{n+1} <= q_n^2/2 <= 1/8.  After
    it, a = a_M, t = t_M and pw = 2^M, so k_M = x t/a = c_M/a_M is the
    modulus of the last Landen step.  Each step squares the nome,
    exp(-pi K(1 - x)/K(x)) at modulus sqrt(x) (Borwein & Borwein, *Pi and
    the AGM*, ch. 1-2; DLMF 19.5, 22.2.1), and the nome of modulus k is
    k^2/16 + k^4/32 + O(k^6), whose -log is log 16 - 2 log k - k^2/2 +
    O(k^4), so

        K(1 - x) = K(x) (log 16 - 2 log k_M - k_M^2/2) / (pi 2^M),

    where k_M < 3e-7 leaves the omitted terms below 1e-26.  For x < 1e-150,
    k_M ~ x^2/64 would leave the normal range; there the nome is x/16 to
    the last bit and K(1 - x) = K(x) (log 16 - log x)/pi.  K(x)/pi is
    taken as 1/(a_M + b_M), and 2^M scales it exactly.  1 - x is never
    rounded, so K(1 - x) keeps a relative error below 3 * 2^-52 at the
    exact mirror for every double x in (0, 1); the mirror pass raises
    DomainError for any other x.
    """
    ks: list[float] = []
    kms: list[float] = []
    sqrt, log = math.sqrt, math.log
    for x in xs:
        if mirror and not 0.0 < x < 1.0:
            raise DomainError(f"ellip_k_column(mirror=True) requires 0 < x < 1; got {x!r}")
        y = sqrt(1.0 - x)
        u = 1.0 + y
        t = 0.5 / u
        a, b = 0.5 * u, sqrt(y)
        d = a - b
        a, b = 0.5 * (a + b), sqrt(a * b)
        q = x * t / a
        t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
        pw = 4.0
        while q > 0.5:
            d = a - b
            a, b = 0.5 * (a + b), sqrt(a * b)
            q = x * t / a
            t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
            pw += pw
        while q > 1e-3:
            a, b = 0.5 * (a + b), sqrt(a * b)
            q = x * t / a
            t = 0.25 * q * t
            pw += pw
        ks.append(PI / (a + b))
        if not mirror:
            continue
        if x < 1e-150:
            kms.append((_LOG16 - log(x)) / (a + b))
        else:
            km = x * t / a
            kms.append((_LOG16 - 2.0 * log(km) - 0.5 * km * km) / (pw * (a + b)))
    return (ks, kms) if mirror else ks


def ellip_k(x: float) -> float:
    """Complete integral of the first kind at parameter x, 0 <= x < 1.

    Strictly increasing, diverging like -log(1-x)/2 as x -> 1.
    Relative error is a few ulp across the domain.  A one-point call of
    ``ellip_k_column``.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"ellip_k requires 0 <= x < 1; got {x!r}")
    return ellip_k_column((x,))[0]


def ellip_e(x: float) -> float:
    """Complete integral of the second kind at parameter x, 0 <= x <= 1.

    Strictly decreasing from pi/2 to 1.  Formed from K and tail of
    ``ellip_kpt``: its first step, same operations in the same order, gives
    b_2^2 + c_1^2/2, so E keeps every bit.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"ellip_e requires 0 <= x <= 1; got {x!r}")
    if x == 1.0:
        return 1.0
    (k,), _ps, _t2s, (tail,) = ellip_kpt([x])
    y = math.sqrt(1.0 - x)
    t = 0.5 / (1.0 + y)
    a, b = 0.5 * (1.0 + y), math.sqrt(y)
    return k * (a * b + 0.5 * x * x * t * t - 0.5 * x * x * tail)


_REL_TOL = 1e-17
_MAX_TERMS = 1_000_000


def hyp2f1(a: float, b: float, c: float, x: float) -> float:
    """Gauss hypergeometric series 2F1(a, b; c; x) for |x| < 1.

    Sums the defining series with the term recurrence
    t_{n+1} = t_n (a+n)(b+n) x / ((c+n)(1+n)), stopping once
    |t_n| < _REL_TOL * |partial sum|.  The cap of _MAX_TERMS terms guards
    against the logarithmic divergence of parameter combinations like
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
    n = _MAX_TERMS if _cap_unreachable(a, b, c, x) else 0
    while n < _MAX_TERMS:
        term *= (a + n) * (b + n) * x / ((c + n) * (1.0 + n))
        total += term
        n += 1
        if not math.isfinite(total):
            raise ConvergenceError(
                f"2F1({a}, {b}; {c}; {x}): non-finite partial sum {total} after {n} terms")
        if abs(term) < _REL_TOL * abs(total):
            return total
    raise ConvergenceError(
        f"2F1({a}, {b}; {c}; {x}) did not converge within {_MAX_TERMS} terms")


def _cap_unreachable(a: float, b: float, c: float, x: float) -> bool:
    """True only where hyp2f1's stop test provably fails at every one of
    its _MAX_TERMS terms, and its partial sums stay finite.

    For a, b, c > 0, c <= a + b and 0 < x < 1 every term t_n is positive
    and t_{n+1} >= t_n x n/(n+1), since (a+n)(b+n) - (c+n)n =
    ab + (a+b-c)n >= 0.  So t_n >= t_1 x^(n-1)/n and, for 1 <= j <= n,
    t_j <= t_n (n/j) x^(j-n), whence the partial sum
    S_n <= 1 + t_n n x^(1-n) (1 + ln n) and
    t_n/S_n >= 1/(n x^(1-n) (1/t_1 + 1 + ln n)), a bound that falls
    with n.  Where it stays above 2 _REL_TOL at n = _MAX_TERMS, no term
    passes the stop test t_n < _REL_TOL S_n; the factor 2 covers the
    rounding of up to 10^12 computed terms, far above _MAX_TERMS.
    xab <= c and x(a+b) <= c+1 keep every term ratio at most 1, so the
    sums stay finite and no other error comes first.  They are tested
    before the exact sum c - a - b, so that an a + b that overflows gives
    False, never fsum's OverflowError.
    """
    if not (a > 0.0 and b > 0.0 and c > 0.0 and 0.0 < x < 1.0
            and x * a * b <= c and x * (a + b) <= c + 1.0
            and math.fsum((c, -a, -b)) <= 0.0):      # c <= a + b, exactly
        return False
    t1 = a * b * x / c
    if not t1 > 0.0:
        return False
    n = _MAX_TERMS
    log_bound = math.log(n) - (n - 1) * math.log(x) + math.log(1.0 / t1 + 1.0 + math.log(n))
    return log_bound < -math.log(2.0 * _REL_TOL)


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
    kx, kc = ellip_k(x), ellip_k(xc)
    return ellip_e(x) * kc + ellip_e(xc) * kx - kx * kc - 0.5 * PI
