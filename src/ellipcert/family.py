"""The convexity function zoo built on the elliptic kernels.

Two parametric families live here: the log-shift ratio family
f(a, x) = K(x) / (a - log(1-x)/2) and the power family
h(p, x) = (1-x)^p K(x), together with the auxiliary functions whose
signs carry their second derivatives (g_factor, phi - a, p + G, J, L).

Sign factors are evaluated through exact rearrangements in terms of
K, P = (K-E)/x and T2 = ((2-x)K-2E)/x^2, so they remain
sign-trustworthy at both interval ends where the textbook expressions
are 0/0-ill-conditioned.  All three come from one AGM pass without the
E sum (specfun.ellip_kpt), which runs over a list of points, so there is
no series branch.  Each formula is written once, as a column form: one
pass over the kernel's columns for a list of points of (0, 1),
with no domain check (the quadratic's coefficients and roots share one;
phi and G are those factors at a = 0 and p = -0.0).  COLUMN_FORMS names
them; certify scans, tables and find_a_c read them, one kernel pass per
batch.  The scalar names are one-point calls of the same forms after
one domain test, require_unit_interval.
Raw numerical differentiation is never used here; finite differences
exist only as oracles in the test suite.

Every function here is pure and takes x in the open interval (0, 1),
where the paper states its results; the public ones raise DomainError at
0 and 1, and their docstrings state the limits there.  CLAIMS is the
one table of the paper's "iff" statements.
"""

from __future__ import annotations

import math

from .specfun import (
    PI,
    LOG4,
    DomainError,
    ellip_k,
    ellip_kpt,
    require_unit_interval,
)

SQRT2 = math.sqrt(2.0)

# Parameter thresholds of the zoo (all algebraic except a_c, which is
# computed by certify.find_a_c and deliberately not hard-coded here).
A_RECIP_CONVEX = LOG4
A_RECIP_CONCAVE = 8.0 / 5.0
P_LOGCONCAVE = 7.0 / 32.0
P_MONOTONE = 0.25
P_CONVEX_HI = 3.0 * (2.0 + SQRT2) / 8.0
P_CONCAVE_LO = 3.0 * (2.0 - SQRT2) / 8.0
ALPHA_LEMMA = (8.0 / 97.0) * (11.0 - 2.0 * math.sqrt(6.0))

# theorem id -> (parameter symbol, name of the factor's column form,
# claimed sign, region): the factor has the claimed sign on all of (0, 1)
# iff the parameter lies in the region, a tuple of closed (lo, hi)
# intervals, or None for thm1-convex (a >= a_c).  certify looks the form
# up in COLUMN_FORMS per command: a value beyond certify.VIOLATION_TOL on
# the wrong side violates the claim, and refinement reads the values in
# chunks of certify._CHUNK.  cor14 and cor15 scan the brackets J/x^2 and
# L/x, which have the signs of J and L.
CLAIMS = {
    "thm1-convex": ("a", "g_factor", "nonnegative", None),
    "thm1-concave": ("a", "g_factor", "nonpositive", ((4.0 / 3.0, 4.0 / 3.0),)),
    "thm2-convex": ("a", "recip_f_second_sign", "nonnegative", ((-math.inf, A_RECIP_CONVEX),)),
    "thm2-concave": ("a", "recip_f_second_sign", "nonpositive", ((A_RECIP_CONCAVE, math.inf),)),
    "thm3-logconcave": ("p", "log_h_second_factor", "nonnegative", ((P_LOGCONCAVE, math.inf),)),
    "thm3-logconvex": ("p", "log_h_second_factor", "nonpositive", ((-math.inf, 0.0),)),
    "cor14-convex": ("p", "j_over_x2", "nonnegative", ((-math.inf, 0.0), (P_CONVEX_HI, math.inf))),
    "cor14-concave": ("p", "j_over_x2", "nonpositive", ((P_CONCAVE_LO, 1.0),)),
    "cor15-monotone": ("p", "l_over_x", "nonpositive", ((P_MONOTONE, math.inf),)),
}


def in_region(theorem: str, value: float) -> bool:
    """Whether value lies in the claimed region of theorem; False for NaN.

    ValueError for thm1-convex, whose region is computed, not tabled.
    """
    region = CLAIMS[theorem][3]
    if region is None:
        raise ValueError(f"the region of {theorem}, a >= a_c, is computed by "
                         "certify.find_a_c")
    return any(lo <= value <= hi for lo, hi in region)


def f(a: float, x: float) -> float:
    """K(x) / (a - log(1-x)/2); tends to pi/(2a) at 0+ (a > 0) and to 1 at 1-."""
    require_unit_interval(x, "f")
    den = a - 0.5 * math.log1p(-x)
    if den <= 0.0:
        raise DomainError(
            f"f denominator a - log(1-x)/2 = {den!r} is not positive at x={x!r}")
    return ellip_k(x) / den


def _quadratic(xs: list[float]) -> tuple[list[float], ...]:
    """The columns (u, v, Delta, w_plus, w_minus) of the f'' quadratic
    u z^2 - v z + s in z = a - log(1-x)/2 over xs in (0, 1).

    With s = 2F1(1/2,1/2;1;x) = (2/pi) K and the closed forms
        2F1(1/2,1/2;2;x)  = (4/pi)(K - P)
        2F1(3/2,3/2;3;x)  = (16/pi) T2
    u = ((1-x) T2 + 2(K-P)) / pi, v = 2(2K - P) / pi, Delta = v^2 - 4 u s,
    and w_plus, w_minus are its roots as values of a.  One pass over the
    points forms all five columns, after one kernel pass.
    """
    ks, ps, t2s, _tails = ellip_kpt(xs)
    us, vs, ds, wps, wms = [], [], [], [], []
    sqrt, log1p = math.sqrt, math.log1p
    for x, k, p, t2 in zip(xs, ks, ps, t2s):
        s = (2.0 / PI) * k
        u = ((1.0 - x) * t2 + 2.0 * (k - p)) / PI
        v = 2.0 * (2.0 * k - p) / PI
        d = v * v - 4.0 * u * s
        sq = sqrt(d) if d > 0.0 else 0.0
        lw = 0.5 * log1p(-x)
        us.append(u)
        vs.append(v)
        ds.append(d)
        wps.append(lw + (v + sq) / (2.0 * u))
        # w_minus via the conjugate form 2s/(v + sqrt(Delta)): the direct
        # (v - sqrt(Delta)) difference cancels catastrophically near x = 0.
        wms.append(lw + 2.0 * s / (v + sq))
    return us, vs, ds, wps, wms


def _g_factor(a: float, xs: list[float]) -> list[float]:
    us, _vs, _ds, wps, wms = _quadratic(xs)
    return [u * (a - wp) * (a - wm) for u, wp, wm in zip(us, wps, wms)]


def _phi_minus(a: float, xs: list[float]) -> list[float]:
    ks, ps, t2s, _tails = ellip_kpt(xs)
    return [0.5 * math.log1p(-x) - 2.0 * k * p / (2.0 * p * p - k * k - k * t2) - a
            for x, k, p, t2 in zip(xs, ks, ps, t2s)]


def _p_plus_g(p: float, xs: list[float]) -> list[float]:
    ks, prs, t2s, _tails = ellip_kpt(xs)
    return [p + ((pr * pr + 2.0 * k * pr - 2.0 * k * k) - k * t2) / (4.0 * k * k)
            for k, pr, t2 in zip(ks, prs, t2s)]


def _j_over_x2(p: float, xs: list[float]) -> list[float]:
    ks, prs, t2s, _tails = ellip_kpt(xs)
    ck, cp = 4.0 * p * p - 8.0 * p + 3.0, 4.0 * (p - 1.0)
    return [t2 + ck * k + cp * pr for k, pr, t2 in zip(ks, prs, t2s)]


def _j(p: float, xs: list[float]) -> list[float]:
    return [x * x * b for x, b in zip(xs, _j_over_x2(p, xs))]


def _l_over_x(p: float, xs: list[float]) -> list[float]:
    ks, prs, _t2s, _tails = ellip_kpt(xs)
    ck = 1.0 - 2.0 * p
    return [ck * k - pr for k, pr in zip(ks, prs)]


def _l(p: float, xs: list[float]) -> list[float]:
    return [x * b for x, b in zip(xs, _l_over_x(p, xs))]


def u_aux(x: float) -> float:
    """Leading quadratic coefficient; increasing from 9/16 toward 2/pi."""
    require_unit_interval(x, "u_aux")
    return _quadratic([x])[0][0]


def v_aux(x: float) -> float:
    """Middle quadratic coefficient; positive on [0, 1)."""
    require_unit_interval(x, "v_aux")
    return _quadratic([x])[1][0]


def delta_aux(x: float) -> float:
    """Discriminant v^2 - 4 u s; increasing from 0, slope 3/16 at 0."""
    require_unit_interval(x, "delta_aux")
    return _quadratic([x])[2][0]


def w_plus(x: float) -> float:
    """Upper root (in a) of the f'' quadratic; 4/3 at 0+, log 4 at 1-.

    Its maximum over (0,1) is the sharp convexity threshold of f(a, .).
    Carries a sqrt(3x/16) cusp at 0, so it sits ~1.2e-5 above 4/3
    already at x = 1e-9.
    """
    require_unit_interval(x, "w_plus")
    return _quadratic([x])[3][0]


def w_minus(x: float) -> float:
    """Lower root (in a) of the f'' quadratic; 4/3 at 0+, -inf at 1-."""
    require_unit_interval(x, "w_minus")
    return _quadratic([x])[4][0]


def g_factor(a: float, x: float) -> float:
    """u(x) (a - w_plus(x)) (a - w_minus(x)); same sign as f''(a, .) at x."""
    require_unit_interval(x, "g_factor")
    return _g_factor(a, [x])[0]


def phi(x: float) -> float:
    """Decreasing map of (0,1) onto (log 4, 8/5) steering 1/f convexity.

    Stabilized form: phi = log(1-x)/2 - 2 K P / B with
    B = 2P^2 - K^2 - K T2 (the denominator bracket divided by x^2),
    which tends to -5 pi^2 / 32 at 0, so phi -> 8/5 without a 0/0.
    """
    return recip_f_second_sign(0.0, x)   # y - 0.0 is y to the bit


def recip_f_second_sign(a: float, x: float) -> float:
    """phi(x) - a: positive iff 1/f(a, .) is locally strictly convex at x."""
    require_unit_interval(x, "phi")
    return _phi_minus(a, [x])[0]


def h(p: float, x: float) -> float:
    """(1-x)^p K(x); tends to pi/2 at 0+ and, for p > 0, to 0 at 1-."""
    require_unit_interval(x, "h")
    return (1.0 - x) ** p * ellip_k(x)


def g_aux(x: float) -> float:
    """Increasing map of (0,1) onto (-7/32, 0) steering log-concavity of h.

    Stabilized form G = ((P^2 + 2KP - 2K^2) - K T2) / (4 K^2), which
    tends to -7/32 at 0 without cancellation.  The approach to 0 at
    x -> 1 is logarithmic, G ~ -1/(2K).
    """
    return log_h_second_factor(-0.0, x)   # -0.0 + y is y to the bit


def log_h_second_factor(p: float, x: float) -> float:
    """p + G(x); its sign is opposite to the sign of (log h(p, .))'' at x."""
    require_unit_interval(x, "g_aux")
    return _p_plus_g(p, [x])[0]


def j_factor(p: float, x: float) -> float:
    """Sign carrier of h''(p, .): h'' = J / (4 x^2 (1-x)^(2-p)).

    Stabilized form J = x^2 (T2 + (4p^2-8p+3)K + 4(p-1)P); near 0 this
    gives J/x^2 -> (pi/16)(32p^2 - 48p + 9) without cancellation.
    """
    require_unit_interval(x, "j_factor")
    return _j(p, [x])[0]


def l_factor(p: float, x: float) -> float:
    """Sign carrier of h'(p, .): equals E + ((1-2p)x - 1)K = x((1-2p)K - P).

    Slope (pi/4)(1 - 4p) at 0; for p in (0, 1/4) it has exactly one sign
    change (the turning point of h).
    """
    require_unit_interval(x, "l_factor")
    return _l(p, [x])[0]


# each function of x above with a column form -> that form: the same
# parameters, then a list of points of (0, 1) in place of x, and no domain
# check.  A grid reads these; the scalar names are one-point calls of them.
# j_over_x2 = J/x^2 and l_over_x = L/x have no scalar name; they are O(1) at 0.
COLUMN_FORMS = {
    "u_aux": lambda xs: _quadratic(xs)[0], "v_aux": lambda xs: _quadratic(xs)[1],
    "delta_aux": lambda xs: _quadratic(xs)[2], "w_plus": lambda xs: _quadratic(xs)[3],
    "w_minus": lambda xs: _quadratic(xs)[4], "g_factor": _g_factor,
    "phi": lambda xs: _phi_minus(0.0, xs), "recip_f_second_sign": _phi_minus,
    "g_aux": lambda xs: _p_plus_g(-0.0, xs), "log_h_second_factor": _p_plus_g,
    "j_factor": _j, "l_factor": _l, "j_over_x2": _j_over_x2, "l_over_x": _l_over_x,
}
