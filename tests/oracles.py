"""Independent numerical oracles for the test suite.

Everything here is test-only and deliberately primitive: adaptive
quadrature of the defining integrals, brute-force series accumulation,
finite differences, and plain bisection.  The production package must
never import this module; expected values in the tests are produced by
these oracles first and then pinned as literals.

The cross-checks below the elementary oracles are built from the
package's public functions: an alternative route to a value that
production code computes one way only (Euler's transformation of 2F1,
the unfactored f'' quadratic, the derivatives of K and E, the multiplier
of (1/f)'') and the asymptotic expansion of K at 1.  ``ellip_kept`` is
(K, E, P, T2) from the kernel pass ``specfun.ellip_kpt`` and from
``specfun.ellip_e``, which forms E from that pass, and ``ke_ratio`` and
``ke_ratio2`` name its two ratios.  ``columns`` hands a function of one
point to the scan engine, which calls its function on a list of points.
The ``*_reference`` functions are earlier, simpler forms of production
code that a faster form replaced; the tests require the same output from
both.

``agm_reference`` is the four-output AGM pass that built E beside K, P
and T2 before the factors' pass dropped the E sum, and
``FACTOR_REFERENCES`` the sign factors as they were built on it; the
tests require every bit of the production values from them.
``agm_columns_reference`` is the AGM loop of ``specfun.ellip_kpt`` and
``specfun.ellip_k_column`` as one loop that tests q > 1/2 at every step,
before each was split in two phases; every column of both, the mirror
column too, must match it bit for bit.

The ``mp_*`` oracles work in mpmath at 40-50 digits, straight from the
defining derivatives of K and from mpmath's own K and E, without the
package's stabilized factor forms; ``mp_factor`` alone evaluates the
factors' closed forms in K, P and T2, at 50 digits, where rounding
cannot flip their sign, and ``mp_pair_margins`` and
``mp_k_envelope_margins`` the clause margins of verify's pairing checks
and of its K-envelope.  They import mpmath when called, so
the scipy oracles keep working where mpmath is absent.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Callable, Literal, Sequence

from scipy.integrate import IntegrationWarning, quad

from ellipcert.certify import (
    _MAX_FLAGGED,
    _SUBDIVISIONS,
    VIOLATION_TOL,
    InconclusiveScanError,
    ScanConfig,
    SignCertificate,
)
from ellipcert.family import P_CONVEX_HI, P_LOGCONCAVE, P_MONOTONE, u_aux, v_aux
from ellipcert.inequalities import (
    _GEOMETRIC_POINTS,
    EQUALITY_TOL,
    InequalityReport,
    _cluster,
)
from ellipcert.specfun import (
    DomainError,
    ellip_e,
    ellip_k,
    ellip_kpt,
    hyp2f1,
    require_unit_interval,
)

PI = math.pi
LOG16 = math.log(16.0)

_QUAD_OPTS = dict(epsabs=1e-15, epsrel=1e-14, limit=400)


def quad_k(x: float) -> float:
    """First-kind integral from its defining integrand, modulus sqrt(x)."""
    r2 = x
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _err = quad(lambda t: 1.0 / math.sqrt(1.0 - r2 * math.sin(t) ** 2),
                         0.0, PI / 2, **_QUAD_OPTS)
    return val


def quad_e(x: float) -> float:
    """Second-kind integral from its defining integrand, modulus sqrt(x)."""
    r2 = x
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _err = quad(lambda t: math.sqrt(1.0 - r2 * math.sin(t) ** 2),
                         0.0, PI / 2, **_QUAD_OPTS)
    return val


def series_2f1(a: float, b: float, c: float, x: float, terms: int = 100_000) -> float:
    """Brute-force hypergeometric partial sum with explicit Pochhammer growth."""
    total = 0.0
    poch = 1.0  # (a)_n (b)_n / ((c)_n n!) x^n
    for n in range(terms):
        total += poch
        poch *= (a + n) * (b + n) * x / ((c + n) * (1.0 + n))
        if abs(poch) < 1e-18 * abs(total):
            break
    return total + poch


def series_k(x: float, terms: int = 60) -> float:
    """Small-x series of the first-kind integral (parameter form)."""
    c = 1.0
    total = 0.0
    xn = 1.0
    for n in range(terms):
        total += c * c * xn
        c *= (n + 0.5) / (n + 1.0)
        xn *= x
    return (PI / 2) * total


def series_e(x: float, terms: int = 60) -> float:
    """Small-x series of the second-kind integral (parameter form)."""
    total = 1.0
    coef = 1.0  # (1/2)_n (-1/2)_n / (n!)^2
    xn = 1.0
    for n in range(1, terms):
        coef *= (n - 0.5) * (n - 1.5) / (n * n)
        xn *= x
        total += coef * xn
    return (PI / 2) * total


def central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def second_central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def bisect(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Sign-change bisection; fn(lo) and fn(hi) must have opposite signs."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def hyp2f1_euler(a: float, b: float, c: float, x: float) -> float:
    """2F1 via the Euler transformation (1-x)^(c-a-b) 2F1(c-a, c-b; c; x)."""
    return (1.0 - x) ** (c - a - b) * hyp2f1(c - a, c - b, c, x)


def g_factor_quadratic(a: float, x: float) -> float:
    """Unfactored form z^2 u - z v + s of family.g_factor, z = a - log(1-x)/2."""
    require_unit_interval(x, "g_factor_quadratic")
    z = a - 0.5 * math.log1p(-x)
    return (z * u_aux(x) - v_aux(x)) * z + (2.0 / PI) * ellip_k(x)


def ellip_kept(x: float) -> tuple[float, float, float, float]:
    """(K, E, (K-E)/x, ((2-x)K-2E)/x^2) in one AGM pass, 0 <= x < 1.

    The two ratios are free of cancellation and take their limits
    pi/4 and pi/16 at x = 0.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"ellip_kept requires 0 <= x < 1; got {x!r}")
    (k,), (p,), (t2,), _tails = ellip_kpt([x])
    return k, ellip_e(x), p, t2


def ke_ratio(x: float) -> float:
    """(K - E)/x without cancellation, from the one AGM pass; pi/4 at 0."""
    return ellip_kept(x)[2]


def ke_ratio2(x: float) -> float:
    """((2 - x)K - 2E)/x^2 without cancellation, from the one AGM pass; pi/16 at 0."""
    return ellip_kept(x)[3]


def d_ellip_k(x: float) -> float:
    """dK/dx = (E - (1-x)K) / (2x(1-x)) = (K - (K-E)/x) / (2(1-x)); pi/8 at 0+."""
    require_unit_interval(x, "d_ellip_k")
    return (ellip_k(x) - ke_ratio(x)) / (2.0 * (1.0 - x))


def d_ellip_e(x: float) -> float:
    """dE/dx = (E - K) / (2x) = -(K-E)/x / 2; -pi/8 at 0+."""
    require_unit_interval(x, "d_ellip_e")
    return -0.5 * ke_ratio(x)


def recip_f_multiplier(x: float) -> float:
    """2KE - x(1-x)K^2 - 2E^2, the factor relating (1/f)'' to phi - a, as
    -x^2 (2P^2 - K^2 - K T2) with P = (K-E)/x and T2 = ((2-x)K-2E)/x^2,
    which keeps the sign at small x where the raw terms cancel to O(x^2)."""
    require_unit_interval(x, "recip_f_multiplier")
    k, p, t2 = ellip_k(x), ke_ratio(x), ke_ratio2(x)
    return -x * x * (2.0 * p * p - k * k - k * t2)


def k_near_one(x: float) -> float:
    """K at x near 1 from DLMF 19.12.1: L + (1-x)(L-1)/4 with
    L = log 4 - log(1-x)/2; the omitted terms are O((1-x)^2 L)."""
    big = math.log(4.0) - 0.5 * math.log1p(-x)
    return big + 0.25 * (1.0 - x) * (big - 1.0)


def gamma(z: float) -> float:
    """Gamma oracle for the unit-argument hypergeometric value."""
    return math.gamma(z)


def mp_a_c(dps: int = 40) -> float:
    """Sharp convexity constant of K(x)/(a - log(1-x)/2), at dps digits.

    With z = a - log(1-x)/2, z' = 1/(2(1-x)) and z'' = 2 z'^2,
    z^3 f'' = K'' z^2 - (2K'z' + K z'') z + 2K z'^2, with K' and K''
    from mpmath.diffs.  The upper root in z, shifted back to a, is
    maximized over x by golden section on [0.05, 0.95], which brackets
    the single interior maximum near x = 0.433.
    """
    import mpmath

    with mpmath.workdps(dps):
        def upper_root(x):
            k, dk, d2k = mpmath.diffs(mpmath.ellipk, x, 2)
            y = 1 - x
            dz = 1 / (2 * y)
            b = 2 * dk * dz + 2 * k * dz * dz
            disc = b * b - 8 * d2k * k * dz * dz
            return (b + mpmath.sqrt(disc)) / (2 * d2k) + mpmath.log(y) / 2

        lo, hi = mpmath.mpf("0.05"), mpmath.mpf("0.95")
        r = (mpmath.sqrt(5) - 1) / 2
        c, d = hi - r * (hi - lo), lo + r * (hi - lo)
        fc, fd = upper_root(c), upper_root(d)
        # the value is quadratic in the x error: dps/2 digits of x suffice
        while hi - lo > mpmath.mpf(10) ** (-(dps // 2) - 2):
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - r * (hi - lo)
                fc = upper_root(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + r * (hi - lo)
                fd = upper_root(d)
        return float(max(fc, fd))


def mp_g(x: float, dps: int = 50) -> float:
    """G(x) = -(1-x)^2 (log K)''(x) from mpmath K and E.

    K' = (E - (1-x)K) / (2x(1-x)) and K'' from the hypergeometric ODE
    x(1-x)K'' + (1-2x)K' - K/4 = 0.
    """
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        y = 1 - x
        k, e = mpmath.ellipk(x), mpmath.ellipe(x)
        dk = (e - y * k) / (2 * x * y)
        d2k = (k / 4 - (1 - 2 * x) * dk) / (x * y)
        return float(-y * y * (k * d2k - dk * dk) / (k * k))


def mp_x_p(p: float, dps: int = 50) -> float:
    """Root in (0, 1) of E + ((1-2p)x - 1)K, for p in (0, 1/4), at dps digits."""
    import mpmath

    with mpmath.workdps(dps):
        p = mpmath.mpf(p)

        def l_fn(x):
            return mpmath.ellipe(x) + ((1 - 2 * p) * x - 1) * mpmath.ellipk(x)

        bracket = (mpmath.mpf("1e-6"), 1 - mpmath.mpf(10) ** -30)
        return float(mpmath.findroot(l_fn, bracket, solver="anderson"))


def _mp_kept(x):
    """(K, E, (K-E)/x, ((2-x)K-2E)/x^2) at the mpf x, at the caller's
    mpmath precision."""
    import mpmath

    k, e = mpmath.ellipk(x), mpmath.ellipe(x)
    return k, e, (k - e) / x, ((2 - x) * k - 2 * e) / (x * x)


def mp_kept(x: float, dps: int = 50) -> tuple[float, float, float, float]:
    """(K, E, (K-E)/x, ((2-x)K-2E)/x^2) from mpmath K and E at dps digits.

    The two differences lose about log10(1/x) and 2 log10(1/x) digits to
    cancellation, which 50 digits absorb down to x = 1e-12.
    """
    import mpmath

    with mpmath.workdps(dps):
        return tuple(float(v) for v in _mp_kept(mpmath.mpf(x)))


def mp_factor(name: str, param: float, x: float, dps: int = 50) -> float:
    """The sign factor ``name`` of family.CLAIMS at (param, x), evaluated
    at dps digits on mp_kept's K, P = (K-E)/x and T2 = ((2-x)K-2E)/x^2:
    cor14 and cor15 name the brackets j_over_x2 = J/x^2 and l_over_x = L/x.

    g_factor is the f'' quadratic u z^2 - v z + s in z = a - log(1-x)/2,
    not the product over its roots that the package forms; the others
    are the package's closed forms in K, P and T2.
    """
    import mpmath

    with mpmath.workdps(dps):
        x, c = mpmath.mpf(x), mpmath.mpf(param)
        k, _e, p, t2 = _mp_kept(x)
        if name == "g_factor":
            u = ((1 - x) * t2 + 2 * (k - p)) / mpmath.pi
            v = 2 * (2 * k - p) / mpmath.pi
            z = c - mpmath.log(1 - x) / 2
            value = (u * z - v) * z + 2 * k / mpmath.pi
        elif name == "recip_f_second_sign":
            value = mpmath.log(1 - x) / 2 - 2 * k * p / (2 * p * p - k * k - k * t2) - c
        elif name == "log_h_second_factor":
            value = c + ((p * p + 2 * k * p - 2 * k * k) - k * t2) / (4 * k * k)
        elif name == "j_over_x2":
            value = t2 + (4 * c * c - 8 * c + 3) * k + 4 * (c - 1) * p
        elif name == "l_over_x":
            value = (1 - 2 * c) * k - p
        else:
            raise KeyError(name)
        return float(value)


def _mp_k_mirror(x: float, dps: int):
    """K(1 - x) at the exact mirror point, an mpf at dps - log10(x) digits."""
    import mpmath

    with mpmath.workdps(dps + max(0, math.ceil(-math.log10(x)))):
        return mpmath.ellipk(1 - mpmath.mpf(x))


def mp_k_mirror(x: float) -> float:
    """K(1 - x) at the exact mirror point, from mpmath.

    1 - x needs about -log10(x) digits more than x itself, so the working
    precision is 40 - log10(x) digits: at a fixed 40 digits 1 - x rounds,
    and the reference is wrong below x ~ 1e-30.
    """
    return float(_mp_k_mirror(x, 40))


@functools.lru_cache(maxsize=None)
def _mp_k_pair(r: float, dps: int):
    """(K(r), K(1 - r)) as mpf: K(r) at dps digits, K(1 - r) at the exact
    mirror point by mp_k_mirror's precision rule with dps in place of 40.
    Memoized: the pairing checks of one grid share their points."""
    import mpmath

    with mpmath.workdps(dps):
        k = mpmath.ellipk(mpmath.mpf(r))
    return k, _mp_k_mirror(r, dps)


def mp_pair_margins(name: str, q: float, xs: Sequence[float],
                    dps: int = 50) -> tuple[dict[str, list[float]], tuple[str, ...]]:
    """The clause margins of the pairing check ``name`` ("sum-bounds",
    "weighted-sum" or "product-pair") at parameter q and at each r of xs,
    computed at dps digits and rounded once to doubles, and the clauses
    the check reports equality points of.

    K(r), K(1 - r) at the exact mirror point and K(1/2) come from
    mpmath.ellipk, and every bound is formed from them at dps digits, so
    the margins carry none of the double-precision rounding of the check.
    """
    import mpmath

    with mpmath.workdps(dps):
        c, pi = mpmath.mpf(q), mpmath.pi
        k_half = mpmath.ellipk(0.5)
        cols: dict[str, list] = {}
        for r in xs:
            k, km = _mp_k_pair(r, dps)
            x = mpmath.mpf(r)
            s = 1 - x
            if name == "sum-bounds":
                total = k / (c - mpmath.log(s) / 2) + km / (c - mpmath.log(x) / 2)
                row = {"lower": 4 * k_half / (2 * c + mpmath.log(2)) - total,
                       "upper": total - (1 + pi / (2 * c))}
            elif name == "weighted-sum":
                total = s ** c * k + x ** c * km
                mid = k_half / 2 ** (c - 1)
                below, above = (mid, pi / 2) if q >= P_CONVEX_HI else (pi / 2, mid)
                row = {"lower": below - total, "upper": total - above}
            elif name == "product-pair":
                w = (x * s) ** c
                row = {"sum_lower": 2 ** (1 + c) * k_half * w - (x ** c * k + s ** c * km)}
                if q >= P_LOGCONCAVE:
                    row["geo_upper"] = mpmath.sqrt(w * k * km) - k_half / 2 ** c
            else:
                raise KeyError(name)
            for cl, m in row.items():
                cols.setdefault(cl, []).append(float(m))
    if name == "sum-bounds":
        tight = ("lower",)
    elif name == "weighted-sum":
        tight = ("lower",) if q >= P_CONVEX_HI else ("upper",)
    else:
        tight = tuple(cols)
    return cols, tight


def _mp_h_max(p: float, dps: int):
    """(max of h(p, .), 1 - x*) as mpf, for 0 < p < 1/4, where x* is the
    zero of L = E + ((1-2p)x - 1)K.  Solved in u = -log(1 - x) from the
    DLMF 19.12 estimate u = 1/p - log 16, with 1/(p log 10) digits beyond
    dps, so that 1 - x* is resolved wherever it lies below the doubles'
    resolution at 1."""
    import mpmath

    u0 = 1.0 / p - math.log(16.0)
    with mpmath.workdps(dps + max(0, math.ceil(u0 / math.log(10.0)))):
        c = mpmath.mpf(p)

        def l_fn(u):
            x = 1 - mpmath.exp(-u)
            return mpmath.ellipe(x) + ((1 - 2 * c) * x - 1) * mpmath.ellipk(x)

        t = mpmath.exp(-mpmath.findroot(l_fn, mpmath.mpf(u0), verify=False))
        return t ** c * mpmath.ellipk(1 - t), t


def mp_h_max(p: float, dps: int = 50) -> tuple[float, float]:
    """The maximum of h(p, .) = (1-x)^p K(x) over (0, 1), for 0 < p < 1/4,
    and 1 - x* at the turning point x* where h takes it, at dps digits."""
    top, t = _mp_h_max(p, dps)
    return float(top), float(t)


def mp_k_envelope_margins(p: float, cfg: ScanConfig, dps: int = 50
                          ) -> tuple[list[float], dict[str, list[float]], float | None]:
    """The points check_k_envelope(p, cfg) scans, its two clause margins
    at each of them, computed at dps digits and rounded once to doubles,
    and the x_p it reports (None for p >= 1/4).

    K(r) comes from mpmath.ellipk.  Below 1/4, x_p is mp_x_p(p) rounded,
    the grid (inequality_grid_reference) ends at min(hi, x_p), and the
    cap is h(p, x_p) at dps digits at that double; where x_p rounds to
    1.0, no double below 1 holds it, and the cap is the dps-digit
    maximum of h (mp_h_max).
    """
    import mpmath

    x_p = None if p >= P_MONOTONE else mp_x_p(p, dps)
    xs = inequality_grid_reference(cfg if x_p is None or x_p >= cfg.hi
                                   else cfg._replace(hi=x_p))
    with mpmath.workdps(dps):
        c, half_pi = mpmath.mpf(p), mpmath.pi / 2
        if x_p == 1.0:
            cap = _mp_h_max(p, dps)[0]
        elif x_p is not None:
            cap = (1 - mpmath.mpf(x_p)) ** c * mpmath.ellipk(mpmath.mpf(x_p))
        cols: dict[str, list[float]] = {"lower": [], "upper": []}
        for r in xs:
            k, w = mpmath.ellipk(mpmath.mpf(r)), (1 - mpmath.mpf(r)) ** c
            lower, upper = (half_pi * w - k, k - half_pi / w) if x_p is None else (
                half_pi / w - k, k - cap / w)
            cols["lower"].append(float(lower))
            cols["upper"].append(float(upper))
    return xs, cols, x_p


def mp_phi(x: float, dps: int = 50) -> float:
    """phi(x) = log(1-x)/2 + 2xK(E-K) / (2E^2 - 2EK + x(1-x)K^2) from
    mpmath K and E; the denominator is O(x^2), so dps must exceed twice
    log10(1/x) by the digits wanted."""
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        k, e = mpmath.ellipk(x), mpmath.ellipe(x)
        den = 2 * e * e - 2 * e * k + x * (1 - x) * k * k
        return float(mpmath.log(1 - x) / 2 + 2 * x * k * (e - k) / den)


def inequality_grid_reference(cfg: ScanConfig) -> list[float]:
    """inequalities.inequality_grid as it was first written: the uniform
    grid, the geometric endpoint tails and the midpoint gathered in a
    set and sorted.  The production builder must return the same list."""
    pts = set(cfg.grid())
    lo_v = cfg.lo + cfg.endpoint_offset
    hi_v = cfg.hi - cfg.endpoint_offset
    span = (hi_v - lo_v) / (cfg.n - 1) / cfg.endpoint_offset
    for base, inward in ((lo_v, +1.0), (hi_v, -1.0)):
        if span > 1.0:
            ratio = span ** (1.0 / (_GEOMETRIC_POINTS + 1))
            d = cfg.endpoint_offset
            for _ in range(_GEOMETRIC_POINTS):
                d *= ratio
                pts.add(base + inward * d)
    if lo_v < 0.5 < hi_v:
        pts.add(0.5)
    return sorted(pts)


def geometric_grid_reference(cfg: ScanConfig) -> list[float]:
    """The geometric table grid as cli._run_table first built it: n points
    in equal ratios over [lo + offset, hi - offset], the last one exact.
    ScanConfig.grid("geometric") must return the same list, with each
    point that the rounding of the ratio carries above hi held at hi."""
    lo = cfg.lo + cfg.endpoint_offset
    hi = cfg.hi - cfg.endpoint_offset
    ratio = (hi / lo) ** (1.0 / (cfg.n - 1))
    xs = [lo * ratio ** i for i in range(cfg.n)]
    xs[-1] = hi
    return xs


def render_reference(rows, manifest, fmt: str) -> str:
    """The CLI's renderer as it was written row by row: one json.dumps
    (indent=2) of the whole document, one csv.writer row and one
    fmt_full/fmt_human and ljust call per cell.  ``cli._render`` must
    produce the same bytes."""
    import csv
    import io

    from ellipcert.cli import _json, fmt_full, fmt_human

    mjson = _json(manifest._asdict(), separators=(",", ":"), sort_keys=True)
    if fmt == "json":
        return _json({"manifest": manifest._asdict(), "results": rows}, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        cols = list(rows[0].keys()) if rows else []
        buf.write(f"# manifest: {mjson}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([fmt_full(row.get(c)) for c in cols])
        return buf.getvalue()
    # text
    lines = [f"manifest: {mjson}"]
    if rows:
        cols = list(rows[0].keys())
        table = [[fmt_human(row.get(c)) for c in cols] for row in rows]
        widths = [max(len(c), *(len(t[i]) for t in table)) for i, c in enumerate(cols)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for t in table:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(t, widths)))
    return "\n".join(lines) + "\n"


def columns(fn: Callable[[float], float]) -> Callable[[list[float]], list[float]]:
    """fn of one point as the scan engine calls it: on a list of points,
    returning the list of fn's values there, in order."""
    return lambda xs: list(map(fn, xs))


def _require_finite(values) -> None:
    """A NaN or infinite sample is never evidence: the scan is inconclusive."""
    if not all(map(math.isfinite, values)):
        raise InconclusiveScanError("non-finite sample; no verdict rests on NaN or inf")


def refine_scan_reference(fn: Callable[[float], float],
                          claimed: Literal["nonnegative", "nonpositive"],
                          cfg: ScanConfig,
                          pairs: bool,
                          depth: int) -> SignCertificate:
    """certify._refine_scan as it was first written: every refine level
    merges the new points into the whole sequence with a dict, a global
    sort and a scan of every index for unchecked items.  The production
    engine must return the same certificate or raise the same exception.

    The checked items are the samples fn(x) or, with pairs, the
    differences fn(x_k) - fn(x_{k-1}) of consecutive samples.  Points are
    sampled left to right and the scan stops at the first item on the
    wrong side of the claim beyond VIOLATION_TOL; the margin is the
    smallest |item| checked before it.  Each of the depth levels flags
    the items with |item| <= 10 * margin (at most _MAX_FLAGGED, smallest
    first, then leftmost), splits the intervals next to them into
    _SUBDIVISIONS + 1 parts and samples the new points; the next level
    flags on the merged sequence.  A verdict needs every sample taken
    before it to be finite.
    """
    sgn = 1.0 if claimed == "nonnegative" else -1.0
    xs = cfg.grid()
    vs: list[float | None] = [None] * len(xs)
    if pairs:
        vs[0] = fn(xs[0])
    # indices k, ascending, whose item (vs[k], or vs[k] - vs[k-1]) is unchecked
    todo: Sequence[int] = range(pairs, len(xs))
    margin = math.inf
    for level in range(depth + 1):
        if level:
            items = [b - a for a, b in zip(vs, vs[1:])] if pairs else vs
            threshold = 10.0 * margin
            flagged = sorted((abs(t), i) for i, t in enumerate(items)
                             if abs(t) <= threshold)[:_MAX_FLAGGED]
            new: set[float] = set()
            for _, i in flagged:
                # the intervals on both sides of a sample, or the one a difference spans
                for j in range(max(i - 1 + pairs, 0), min(i + 1, len(xs) - 1)):
                    a, b = xs[j], xs[j + 1]
                    step = (b - a) / (_SUBDIVISIONS + 1)
                    new.update(a + k * step for k in range(1, _SUBDIVISIONS + 1))
            known = dict(zip(xs, vs))
            new.difference_update(known)
            if not new:
                break
            xs = sorted([*xs, *new])
            vs = [known.get(x) for x in xs]
            del known, items  # dropped before sampling, to keep the peak memory down
            todo = [k for k, v in enumerate(vs)
                    if v is None or (pairs and vs[k - 1] is None)]
        for k in todo:
            v = vs[k]
            if v is None:
                v = vs[k] = fn(xs[k])
            item = v - vs[k - 1] if pairs else v
            if sgn * item < -VIOLATION_TOL:
                _require_finite(u for u in vs if u is not None)
                x = xs[k - 1] if pairs else xs[k]
                return SignCertificate("mixed", x, item,
                                       margin if margin < math.inf else abs(item),
                                       xs[k] - x if pairs else None)
            if abs(item) < margin:
                margin = abs(item)
        _require_finite(vs)
    return SignCertificate(claimed, None, None, margin)


def inequality_scan_reference(name: str,
                              param: float | None,
                              xs: Sequence[float],
                              clauses: Sequence[str],
                              margins_at: Callable[[int, float], Sequence[float]],
                              tight: Sequence[str] = (),
                              x_p: float | None = None) -> InequalityReport:
    """The inequality checks' report as it was first built: one pass over
    xs in which margins_at(i, xs[i]) gives every clause margin at that
    point, in the order of clauses.  ``inequalities._report``, which
    reduces whole margin columns, must return the same report or raise
    the same exception.

    Keeps the maximum margin per clause, the equality hits (i, x, margin)
    of the tight clauses and the first violation (x, margin, clause).
    Raises InconclusiveScanError if any margin is NaN or infinite: NaN
    never raises a maximum, so the check is a running sum of margin * 0,
    which stays 0 only while every margin is finite.
    """
    best = [-math.inf] * len(clauses)
    is_tight = [cl in tight for cl in clauses]
    eq_hits: list[tuple[int, float, float]] = []
    witness = None
    probe = 0.0
    for i, x in enumerate(xs):
        for j, m in enumerate(margins_at(i, x)):
            probe += m * 0.0
            if m > best[j]:
                best[j] = m
            if witness is None and m > VIOLATION_TOL:
                witness = (x, m, clauses[j])
            if is_tight[j] and abs(m) <= EQUALITY_TOL:
                eq_hits.append((i, x, m))
    if probe != 0.0:
        raise InconclusiveScanError(f"{name}: a clause margin is NaN or infinite")
    margins = dict(zip(clauses, best))
    if not all(map(math.isfinite, margins.values())):
        raise InconclusiveScanError(f"{name}: a clause margin is NaN or infinite")
    return InequalityReport(
        name=name,
        param=param,
        grid_n=len(xs),
        clause_margins=margins,
        equality_points=_cluster(eq_hits),
        verdict="fail" if witness else "pass",
        witness_x=witness[0] if witness else None,
        witness_value=witness[1] if witness else None,
        witness_clause=witness[2] if witness else None,
        x_p=x_p,
    )


def agm_reference(x: float) -> tuple[float, float, float, float]:
    """(K, E, P, T2) at 0 <= x < 1 from one AGM pass that sums E beside
    K, P and T2 (see specfun.ellip_kpt for the recurrence)."""
    y = math.sqrt(1.0 - x)                    # b_0
    t = 0.5 / (1.0 + y)                       # t_1
    a, b = 0.5 * (1.0 + y), math.sqrt(y)      # a_1, b_1
    g = a * b                                 # b_2^2
    e = g + 0.5 * x * x * t * t
    d = a - b
    a, b = 0.5 * (a + b), math.sqrt(g)        # a_2, b_2
    q = x * t / a                             # c_1 / a_2
    head = 2.0 * t * t
    t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
    head += 4.0 * t * t
    pw = 4.0
    tail = 0.0                                # sum_{n>=3} 2^n t_n^2
    while q > 1e-3:
        d = a - b
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        q = x * t / a
        t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
        pw += pw
        tail += pw * t * t
    s = head + tail
    k = PI / (a + b)
    return k, k * (e - 0.5 * x * x * tail), 0.5 * k * (1.0 + x * s), k * s


def agm_columns_reference(xs: Sequence[float]) -> tuple[list[float], ...]:
    """The columns K, P, T2 and tail of specfun.ellip_kpt and the mirror
    column K(1 - x) of specfun.ellip_k_column over xs, 0 <= x < 1, from one
    loop that tests q > 1/2 at every step; the mirror is NaN at x = 0."""
    ks, ps, t2s, tails, kms = [], [], [], [], []
    for x in xs:
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
        while q > 1e-3:
            d = a - b
            a, b = 0.5 * (a + b), math.sqrt(a * b)
            q = x * t / a
            t = 0.5 * d / x if q > 0.5 else 0.25 * q * t
            pw += pw
            tail += pw * t * t
        s = head + tail
        k = PI / (a + b)
        ks.append(k)
        ps.append(0.5 * k * (1.0 + x * s))
        t2s.append(k * s)
        tails.append(tail)
        km = x * t / a
        kms.append(math.nan if x == 0.0 else
                   (LOG16 - math.log(x)) / (a + b) if x < 1e-150 else
                   (LOG16 - 2.0 * math.log(km) - 0.5 * km * km) / (pw * (a + b)))
    return ks, ps, t2s, tails, kms


def legendre_residual_reference(x: float) -> float:
    """specfun.legendre_residual on agm_reference."""
    require_unit_interval(x, "legendre_residual")
    if 1.0 - x == 1.0:
        raise DomainError(f"legendre_residual needs 1 - x < 1 in floating point, "
                          f"since K(1) is infinite; got x={x!r}")
    kx, ex = agm_reference(x)[:2]
    kc, ec = agm_reference(1.0 - x)[:2]
    return ex * kc + ec * kx - kx * kc - 0.5 * PI


def _w_pair_reference(x: float) -> tuple[float, float, float, float, float]:
    """(u, v, Delta, w_plus, w_minus) on agm_reference."""
    k, _e, p, t2 = agm_reference(x)
    s = (2.0 / PI) * k
    u = ((1.0 - x) * t2 + 2.0 * (k - p)) / PI
    v = 2.0 * (2.0 * k - p) / PI
    d = v * v - 4.0 * u * s
    sq = math.sqrt(d) if d > 0.0 else 0.0
    lw = 0.5 * math.log1p(-x)
    return u, v, d, lw + (v + sq) / (2.0 * u), lw + 2.0 * s / (v + sq)


def _phi_reference(x: float) -> float:
    k, _e, p, t2 = agm_reference(x)
    b = 2.0 * p * p - k * k - k * t2
    return 0.5 * math.log1p(-x) - 2.0 * k * p / b


def _g_aux_reference(x: float) -> float:
    k, _e, p, t2 = agm_reference(x)
    return ((p * p + 2.0 * k * p - 2.0 * k * k) - k * t2) / (4.0 * k * k)


def _j_reference(p: float, x: float) -> float:
    k, _e, pr, t2 = agm_reference(x)
    return x * x * (t2 + (4.0 * p * p - 8.0 * p + 3.0) * k + 4.0 * (p - 1.0) * pr)


def _l_reference(p: float, x: float) -> float:
    k, _e, pr, _t2 = agm_reference(x)
    return x * ((1.0 - 2.0 * p) * k - pr)


def _g_factor_reference(a: float, x: float) -> float:
    u, _v, _d, wp, wm = _w_pair_reference(x)
    return u * (a - wp) * (a - wm)


# family function name -> (takes a parameter, reference at 0 < x < 1);
# the references take (parameter, x) and ignore the parameter if it has none
FACTOR_REFERENCES: dict[str, tuple[bool, Callable[[float, float], float]]] = {
    "u_aux": (False, lambda _, x: _w_pair_reference(x)[0]),
    "v_aux": (False, lambda _, x: _w_pair_reference(x)[1]),
    "delta_aux": (False, lambda _, x: _w_pair_reference(x)[2]),
    "w_plus": (False, lambda _, x: _w_pair_reference(x)[3]),
    "w_minus": (False, lambda _, x: _w_pair_reference(x)[4]),
    "g_factor": (True, _g_factor_reference),
    "phi": (False, lambda _, x: _phi_reference(x)),
    "recip_f_second_sign": (True, lambda a, x: _phi_reference(x) - a),
    "g_aux": (False, lambda _, x: _g_aux_reference(x)),
    "log_h_second_factor": (True, lambda p, x: p + _g_aux_reference(x)),
    "j_factor": (True, _j_reference),
    "l_factor": (True, _l_reference),
}
