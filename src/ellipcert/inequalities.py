"""Grid verification of the inequality corollaries of the two families.

Each check evaluates its clauses as signed margins (lhs - rhs for a
claim lhs <= rhs) over a dense grid: uniform points, geometrically
spaced points near both endpoints (where the binding cases live), and
the exact midpoint 1/2 (where several bounds are tight).  A margin is a
violation only beyond certify.VIOLATION_TOL, the sign scans' slack too:
floating point cannot certify strictness at an equality point itself, so
strict gaps are confirmed only away from the recorded equality points.

Each check builds one margin column per clause, a list index-aligned
with its points, from columns of K: K(x) and, for the bounds that pair
r with 1 - r, K(1 - x).  Each column comes from one kernel call over a
list of points, specfun.ellip_k_column: K alone, or for the pairs, with
mirror=True, K and K(1 - x).  The mirror point is the exact 1 - r, never
its rounding: the mirror pass takes K(1 - x) from the nome of the AGM
pass that gives K(x), so both columns cost one pass per point.
A command that runs several checks on one grid shares a GridColumns, so
that pass runs once per grid point for the whole command.  One
reducer, _report, turns the margin columns into the report: the maximum
per clause, the first violation and the equality points.  A margin that
is NaN or infinite is no evidence: the check raises
InconclusiveScanError (exit 3) instead of giving a verdict.

The pairing checks (sum-bounds, weighted-sum, product-pair and the
chain clauses of gamma-constants) test each pair {r, 1 - r} once.
Every clause there is unchanged when r is swapped with 1 - r, and the
point r gives both halves of its pair, K(1 - r) at the exact mirror.
So pair_runs keeps every grid point r <= 1/2 and, above 1/2, only the
points whose mirror 1 - r (exact for r >= 1/2) lies below the grid's
first point.  A point it drops has its mirror between the first point
and 1/2, where the kept points lie at most a grid step apart.  On a
grid with lo + hi = 1 that mirror is a kept point to within rounding,
so a dropped point only repeats a pair; on other grids its pair falls
between two scanned pairs, and every pair is still sampled at the grid
step.  These reports count the points scanned in grid_n, take the
witness as the first violation among them in point order, and cluster
equality points across neighbours among them: a skipped point's margins
are its mirror's, so an equality band around 1/2 is one point.

Each clause applies on the region of the theorem it rests on, read from
family.CLAIMS by family.in_region; weighted-sum's convex regime alone
compares p with its threshold.  Reports are independent and
deterministic; random-pair checks take an explicit seed.
"""

from __future__ import annotations

import bisect
import math
import random
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from itertools import islice
from operator import eq

from . import certify, family
from .certify import (
    DEFAULT_SCAN,
    InconclusiveScanError,
    ScanConfig,
    _all_finite,
    find_x_p,
)
from .specfun import (
    GAMMA_QUARTER,
    GAMMA_THREE_QUARTER,
    PI,
    DomainError,
    ellip_k,
    ellip_k_column,
    require_unit_interval,
)

# |margin| <= EQUALITY_TOL marks an equality point, and hits at
# neighbouring scanned points are one.
EQUALITY_TOL = 1e-9

_GEOMETRIC_POINTS = 20
_MEAN_CHAIN_PAIRS = 1000  # random pairs of check_mean_chain_pairs


class InequalityReport(namedtuple("InequalityReport",
                                  "name param grid_n clause_margins equality_points verdict "
                                  "witness_x witness_value witness_clause x_p",
                                  defaults=(None, None, None, None))):
    """Outcome of one inequality check.

    clause_margins holds, per clause, the maximum of (lhs - rhs) over
    the grid for a claim lhs <= rhs, so a pass shows values <= ~0.
    grid_n counts the points scanned, for a pairing check those that
    hold a new pair {r, 1 - r} (pair_runs).
    equality_points lists grid locations (clustered) where a tight
    clause is an equality to within EQUALITY_TOL.  verdict is "fail"
    iff some clause exceeds VIOLATION_TOL, in which case the witness
    fields identify the first offending point.
    """

    __slots__ = ()


def inequality_grid(cfg: ScanConfig = DEFAULT_SCAN) -> list[float]:
    """cfg.grid() plus geometric endpoint tails plus the exact midpoint,
    ascending and without repeats.

    cfg.grid() is already ascending and the 2 * _GEOMETRIC_POINTS + 1
    extra points are appended, so the sort has little to reorder and
    runs in about linear time; equal points end up adjacent, and the
    list is rebuilt without repeats only where a C-level pass over
    adjacent pairs finds one.
    """
    pts = cfg.grid()
    lo_v, hi_v = cfg.ends
    # geometric tails from each endpoint up to one uniform step inward
    span = (hi_v - lo_v) / (cfg.n - 1) / cfg.endpoint_offset
    for base, inward in ((lo_v, +1.0), (hi_v, -1.0)):
        if span > 1.0:
            ratio = span ** (1.0 / (_GEOMETRIC_POINTS + 1))
            d = cfg.endpoint_offset
            for _ in range(_GEOMETRIC_POINTS):
                d *= ratio
                pts.append(base + inward * d)
    if lo_v < 0.5 < hi_v:
        pts.append(0.5)
    pts.sort()
    if any(map(eq, pts, islice(pts, 1, None))):  # a C-level search for a repeat
        pts = [x for prev, x in zip([None, *pts], pts) if x != prev]
    return pts


def _cluster(points: list[tuple[int, float, float]]) -> list[float]:
    """One representative per contiguous run of equality hits.

    Near a tight point the margin is quadratically flat, so a whole band
    of scanned points can sit inside EQUALITY_TOL; a run of consecutive
    indices among the scanned points collapses to its tightest member,
    and hits with a non-hit between them stay apart, however close.
    """
    out: list[float] = []
    best: tuple[float, float] | None = None
    prev_i: int | None = None
    for i, x, m in sorted(points):
        if best is not None and i - prev_i > 1:
            out.append(best[0])
            best = None
        if best is None or abs(m) < abs(best[1]):
            best = (x, m)
        prev_i = i
    if best is not None:
        out.append(best[0])
    return out


def pair_runs(xs: Sequence[float]) -> tuple[int, int]:
    """(m, j) such that xs[:m] and xs[j:] are the points of the ascending
    xs that hold a new pair {r, 1 - r}: every r <= 1/2, and each r above
    1/2 whose mirror 1 - r lies below the first point xs[0].

    For r >= 1/2, 1 - r is exact (Sterbenz), so the test is exact too.
    The points xs[m:j] have their mirrors between xs[0] and 1/2, where
    the points of xs[:m] lie.
    """
    m = bisect.bisect_right(xs, 0.5)
    first = xs[0]
    return m, bisect.bisect_left(xs, True, m, key=lambda r: 1.0 - r < first)


class GridColumns:
    """inequality_grid(cfg), with K(x) and K(1 - x) at the pair points.

    pair_xs holds the points xs[:m] and xs[j:] that hold a new pair
    {r, 1 - r}, where (m, j) = runs (pair_runs): the pairing checks scan
    these alone.  The columns are computed on first use and kept by this
    object alone.  k_pair, which the pairing checks read, gives K(x) and
    K(1 - x) at pair_xs from one mirror pass of ellip_k_column; k, which a
    K-only check reads over all of xs, takes K from that pass where it has
    run and one K-only pass over the other points only (over every point
    if it has not).  So the checks of one command that share it run
    the AGM once per point as long as the pairing checks come first, as
    they do in cli's verify, and a command that never pairs r with 1 - r
    never computes K(1 - x).  A grid check takes either a GridColumns or a
    plain ScanConfig, for which it builds its own.
    """

    def __init__(self, cfg: ScanConfig = DEFAULT_SCAN):
        self.cfg = cfg

    @cached_property
    def xs(self) -> list[float]:
        return inequality_grid(self.cfg)

    @cached_property
    def runs(self) -> tuple[int, int]:
        return pair_runs(self.xs)

    @cached_property
    def pair_xs(self) -> list[float]:
        m, j = self.runs
        return self.xs[:m] + self.xs[j:]

    @cached_property
    def k_pair(self) -> tuple[list[float], list[float]]:
        return ellip_k_column(self.pair_xs, mirror=True)

    @cached_property
    def k(self) -> list[float]:
        if "k_pair" not in self.__dict__:
            return ellip_k_column(self.xs)
        (m, j), k = self.runs, self.k_pair[0]
        return k[:m] + ellip_k_column(self.xs[m:j]) + k[m:]


def _columns(grid: ScanConfig | GridColumns) -> GridColumns:
    """The columns a check was given, or new ones for a plain ScanConfig."""
    return grid if isinstance(grid, GridColumns) else GridColumns(grid)


def _report(name: str,
            param: float | None,
            xs: Sequence[float],
            columns: dict[str, list[float]],
            tight: Sequence[str] = (),
            x_p: float | None = None) -> InequalityReport:
    """The report of margin columns: columns maps each clause, in order, to
    its margins at xs, index-aligned.

    Per clause: the maximum margin, the first index above VIOLATION_TOL
    and, for the tight clauses, the equality hits.  The witness is the
    first violation in point order, ties going to clause order.  Equality
    hits cluster across neighbours in xs.  An empty column, or one that
    holds a NaN or an infinity, is no evidence: InconclusiveScanError.
    A column's finiteness is certify._all_finite's C-level test.  The hits
    are searched in chunks of certify._CHUNK items, as the sign scans flag:
    a chunk is read item by item only where its C-level min and max leave
    room for a hit, min <= EQUALITY_TOL and max >= -EQUALITY_TOL.
    """
    if not all(col and _all_finite(col) for col in columns.values()):
        raise InconclusiveScanError(f"{name}: a clause margin is NaN or infinite")
    tol, size = certify.VIOLATION_TOL, certify._CHUNK
    margins = {cl: max(col) for cl, col in columns.items()}
    firsts = [(next(i for i, m in enumerate(col) if m > tol), j, cl)
              for j, (cl, col) in enumerate(columns.items()) if margins[cl] > tol]
    hits = [(i, xs[i], col[i]) for cl, col in columns.items() if cl in tight
            for c in range(0, len(col), size)
            if min(chunk := col[c:c + size]) <= EQUALITY_TOL and max(chunk) >= -EQUALITY_TOL
            for i in range(c, c + len(chunk)) if abs(col[i]) <= EQUALITY_TOL]
    i, _, clause = min(firsts, default=(None, None, None))
    return InequalityReport(
        name=name,
        param=param,
        grid_n=len(xs),
        clause_margins=margins,
        equality_points=_cluster(hits),
        verdict="fail" if firsts else "pass",
        witness_x=None if i is None else xs[i],
        witness_value=None if i is None else columns[clause][i],
        witness_clause=clause,
        x_p=x_p,
    )


def check_sum_bounds(a: float,
                     grid: ScanConfig | GridColumns = DEFAULT_SCAN) -> InequalityReport:
    """4K(1/2)/(2a+log 2) <= f(a,r) + f(a,1-r) < 1 + pi/(2a) on (0,1).

    The bounds are claimed for a at or above the computed sharp constant;
    the lower bound is tight exactly at r = 1/2, the upper is approached
    (at a logarithmic rate) as r -> 0 or 1.  Called with smaller a > 0
    the check runs anyway and reports the failure witness.
    """
    if not a > 0.0:
        raise DomainError(f"sum bounds need a > 0; got a={a!r}")
    lower = 4.0 * ellip_k(0.5) / (2.0 * a + math.log(2.0))
    upper = 1.0 + PI / (2.0 * a)
    cols = _columns(grid)
    # f(a, r) + f(a, 1 - r), at the exact mirror point; both denominators
    # are at least a > 0
    total = [kr / (a - 0.5 * math.log1p(-r)) + km / (a - 0.5 * math.log(r))
             for r, kr, km in zip(cols.pair_xs, *cols.k_pair)]
    return _report("sum-bounds", a, cols.pair_xs,
                   {"lower": [lower - t for t in total], "upper": [t - upper for t in total]},
                   tight=("lower",))


def check_weighted_sum(p: float,
                       grid: ScanConfig | GridColumns = DEFAULT_SCAN) -> InequalityReport:
    """K(1/2)/2^(p-1) <= h(p,r) + h(p,1-r) < pi/2 for p >= 3(2+sqrt2)/8.

    For p in the concavity window [3(2-sqrt2)/8, 1] both bounds reverse.
    Midpoint equality at r = 1/2 in both regimes.
    """
    # the upper clause h(r) + h(1 - r) < pi/2 fails for p <= 0, where
    # h(p, x) -> inf as x -> 1: this regime is cor14-convex's upper interval
    convex = p >= family.P_CONVEX_HI
    if not (convex or family.in_region("cor14-concave", p)):
        raise DomainError(
            f"weighted-sum bounds are claimed only for p >= {family.P_CONVEX_HI!r} "
            f"or p in [{family.P_CONCAVE_LO!r}, 1]; got p={p!r}")
    mid_bound = ellip_k(0.5) / 2.0 ** (p - 1.0)
    below, above = (mid_bound, PI / 2) if convex else (PI / 2, mid_bound)
    cols = _columns(grid)
    # h(p, r) + h(p, 1 - r), at the exact mirror point
    total = [(1.0 - r) ** p * kr + r ** p * km
             for r, kr, km in zip(cols.pair_xs, *cols.k_pair)]
    return _report("weighted-sum", p, cols.pair_xs,
                   {"lower": [below - t for t in total], "upper": [t - above for t in total]},
                   tight=("lower",) if convex else ("upper",))


def check_product_pair(p: float,
                       grid: ScanConfig | GridColumns = DEFAULT_SCAN) -> InequalityReport:
    """Product-side bounds of the power family.

    sum_lower (p >= 0):  2^(1+p) K(1/2) (r-r^2)^p <= r^p K(r) + (1-r)^p K(1-r)
    geo_upper (p >= 7/32): sqrt((r-r^2)^p K(r) K(1-r)) <= K(1/2) / 2^p
    Equality at r = 1/2 for both.  Where both sides of geo_upper are at most
    VIOLATION_TOL (p above about 40.75), it cannot fail: InconclusiveScanError.
    """
    if p < 0.0:
        raise DomainError(f"product-pair bounds need p >= 0; got p={p!r}")
    k_half = ellip_k(0.5)
    sum_scale = 2.0 ** (1.0 + p) * k_half
    geo_bound = k_half / 2.0 ** p
    cols = _columns(grid)
    xs, (k, k_mirror) = cols.pair_xs, cols.k_pair
    w = [(r - r * r) ** p for r in xs]
    columns = {"sum_lower": [sum_scale * wr - (r ** p * kr + (1.0 - r) ** p * km)
                             for r, wr, kr, km in zip(xs, w, k, k_mirror)]}
    if family.in_region("thm3-logconcave", p):
        lhs = [math.sqrt(wr * kr * km) for wr, kr, km in zip(w, k, k_mirror)]
        if (larger := max(geo_bound, max(lhs))) <= certify.VIOLATION_TOL:
            raise InconclusiveScanError(
                f"product-pair: geo_upper's sides are at most {larger!r} for p={p!r}, "
                f"within VIOLATION_TOL={certify.VIOLATION_TOL!r} of 0: it cannot fail")
        columns["geo_upper"] = [s - geo_bound for s in lhs]
    return _report("product-pair", p, xs, columns, tight=tuple(columns))


def _h_column(p: float, xs: list[float]) -> list[float]:
    """family.h(p, x) over xs, from one K column, and its DomainError for
    the first x outside (0, 1)."""
    if not (all(map((0.0).__lt__, xs)) and all(map((1.0).__gt__, xs))):
        for x in xs:
            require_unit_interval(x, "h")
    return [(1.0 - x) ** p * k for x, k in zip(xs, ellip_k_column(xs))]


def _mean_chain(p: float, xs: list[float], ys: list[float], tight: bool,
                top: float) -> InequalityReport:
    """The mean-chain clauses that apply at p, over the pairs (xs[i], ys[i]).

    geometric   (p >= 7/32):          sqrt(h(x)h(y)) <= h((x+y)/2)
    midpoint    (p in [p_lo, 1]):     (h(x)+h(y))/2  <= h((x+y)/2)
    geo_argument(p >= 1/4):           h((x+y)/2)     <= h(sqrt(xy))
    All are equalities iff x = y.  p_lo > 7/32, so geometric applies
    wherever another clause does, and h is evaluated once at each of x,
    y and (x+y)/2, and at sqrt(xy) for geo_argument.  No point exceeds
    top; where (1 - top)^p underflows to 0, DomainError names p and top.
    A margin is a difference of h values, so where no h value exceeds
    VIOLATION_TOL no clause can fail: InconclusiveScanError names p and
    the largest h.
    """
    if not family.in_region("thm3-logconcave", p):  # also NaN
        raise DomainError(f"no mean-chain clause applies at p={p!r}")
    hx, hy = _h_column(p, xs), _h_column(p, ys)
    # (1 - r)^p is smallest at top, and every point lies in (0, 1) by now
    if (1.0 - top) ** p == 0.0:
        raise DomainError(f"mean-chain: (1 - r)^p underflows to 0 at r={top!r} for p={p!r}")
    hm = _h_column(p, [0.5 * (x + y) for x, y in zip(xs, ys)])
    columns = {"geometric": [math.sqrt(a * b) - m for a, b, m in zip(hx, hy, hm)]}
    if family.in_region("cor14-concave", p):
        columns["midpoint"] = [0.5 * (a + b) - m for a, b, m in zip(hx, hy, hm)]
    hs = [hx, hy, hm]
    if family.in_region("cor15-monotone", p):
        hs.append(hg := _h_column(p, [math.sqrt(x * y) for x, y in zip(xs, ys)]))
        columns["geo_argument"] = [m - g for m, g in zip(hm, hg)]
    if (largest := max(map(max, hs))) <= certify.VIOLATION_TOL:
        raise InconclusiveScanError(
            f"mean-chain: every h(p, r) is at most {largest!r} for p={p!r}, "
            f"within VIOLATION_TOL={certify.VIOLATION_TOL!r} of 0: no clause can fail")
    return _report("mean-chain", p, xs, columns, tight=tuple(columns) if tight else ())


def check_mean_chain(p: float, x: float, y: float) -> InequalityReport:
    """All mean-chain clauses applicable at p, for one pair (x, y)."""
    return _mean_chain(p, [x], [y], tight=True, top=max(x, y))


def check_mean_chain_pairs(p: float, *, seed: int = 0,
                           cfg: ScanConfig = DEFAULT_SCAN) -> InequalityReport:
    """Mean-chain clauses over _MEAN_CHAIN_PAIRS (1,000) seeded random pairs
    in the scan interval.

    Its underflow test is at the interval's upper end, so that whether it
    raises does not depend on the seed.
    """
    rng = random.Random(seed)
    lo, hi = cfg.ends
    draws = [rng.uniform(lo, hi) for _ in range(2 * _MEAN_CHAIN_PAIRS)]
    return _mean_chain(p, draws[::2], draws[1::2], tight=False, top=hi)


def _turning_cap(p: float) -> tuple[float, float]:
    """(x_p, cap) for 0 < p < 1/4: the turning point of h(p, .), the zero
    of l_factor, and the maximum cap of h(p, .) = (1-x)^p K(x).

    Both h(p, x_p) and 16^p/(2pe) lie below the maximum; the cap is the
    larger.  K > log 4 + theta, theta = -log(1-x)/2, on (0, 1) (Anderson,
    Vamanamurthy & Vuorinen 1997, ch. 3), and (1-x)^p (log 4 + theta)
    peaks at theta* = 1/(2p) - log 4 with value 16^p/(2pe), by about
    (1-x*)/4 relative below h, 1 - x* = 16 e^(-1/p).  It wins just above
    p = 0.0253, where x_p is a few ulps below 1 and h(p, x_p) up to 6e-6
    low.  Where l_factor(p, .) is still positive at the largest double
    below 1, x_p is reported as 1.0, its rounded value, and 16^p/(2pe)
    alone is the cap.
    """
    closed = 16.0 ** p / (2.0 * p * math.e)
    if family.l_factor(p, math.nextafter(1.0, 0.0)) > 0.0:
        return 1.0, closed
    x_p = find_x_p(p)
    return x_p, max(family.h(p, x_p), closed)


def check_k_envelope(p: float,
                     grid: ScanConfig | GridColumns = DEFAULT_SCAN) -> InequalityReport:
    """Power-law envelopes of K.

    p >= 1/4:    (pi/2)(1-r)^p < K(r) < (pi/2)/(1-r)^p on (0,1).
    0 < p < 1/4: (pi/2)/(1-r)^p < K(r) < (1-x_p)^p K(x_p)/(1-r)^p on
                 (0, x_p), with x_p and the cap from _turning_cap.  For
                 p below about 0.0253, x_p lies above every double below
                 1, so the check scans grid as given, under the closed-
                 form cap; for p above about 1/4 - 3e-11, x_p lies below
                 certify.find_x_p's first ladder point 1e-9, and the
                 check raises find_x_p's InconclusiveScanError.
    For p < 1/4 the grid's scan ends at min(hi, x_p): where hi <= x_p it
    is grid itself, and where lo and the offsets leave no point below x_p
    the check raises InconclusiveScanError, naming x_p.
    """
    if not p > 0.0:
        raise DomainError(f"k-envelope needs p > 0; got p={p!r}")
    cols = _columns(grid)
    if family.in_region("cor15-monotone", p):
        xs, k = cols.xs, cols.k
        # (1 - r)^p is smallest at the last grid point
        if (1.0 - xs[-1]) ** p == 0.0:
            raise DomainError(
                f"k-envelope: (1 - r)^p underflows to 0 at r={xs[-1]!r} for p={p!r}")
        w = [(1.0 - r) ** p for r in xs]
        return _report("k-envelope", p, xs,
                       {"lower": [(PI / 2) * wr - kr for wr, kr in zip(w, k)],
                        "upper": [kr - (PI / 2) / wr for wr, kr in zip(w, k)]})
    x_p, cap = _turning_cap(p)
    if cols.cfg.hi > x_p:  # the scan ends at min(hi, x_p)
        try:
            cols = GridColumns(cols.cfg._replace(hi=x_p))
        except ValueError as exc:
            raise InconclusiveScanError(
                f"k-envelope: for p={p!r} no scan point lies below x_p={x_p!r}") from exc
    xs, k = cols.xs, cols.k
    w = [(1.0 - r) ** p for r in xs]
    return _report("k-envelope", p, xs,
                   {"lower": [(PI / 2) / wr - kr for wr, kr in zip(w, k)],
                    "upper": [kr - cap / wr for wr, kr in zip(w, k)]},
                   x_p=x_p)


_GAMMA_GRID = ScanConfig(n=1000, endpoint_offset=1e-6)
_GAMMA_CHAIN = ("chain_product_le_sum_sq", "chain_sum_sq_le_alpha", "chain_alpha_le_outer")


def check_gamma_constant_identities() -> InequalityReport:
    """Consistency of the elliptic kernel with the embedded Gamma constants.

    Checks K(1/2) = pi^(3/2) / (2 Gamma(3/4)^2) and
    K(1/2)^2 = Gamma(1/4)^4 / (16 pi), each by its relative residual,
    Gamma(1/4) Gamma(3/4) = pi sqrt(2) by its absolute residual, and the
    p = 1/4 product/sum chain against alpha = Gamma(1/4)^4 / (2^(2+2p) pi)
    on a grid led by r = 1/2, where the chain is an equality.  Each
    residual is a margin held to VIOLATION_TOL, like every clause.  The
    identities do not depend on r: their columns are constant, so a
    failed identity is reported at r = 1/2.  The grid is fixed, 1000
    uniform points on [1e-6, 1 - 1e-6] after 1/2, whatever the command's
    scan settings; each chain clause is unchanged when r is swapped with
    1 - r, so the check scans 1/2 and the grid points that hold a new
    pair (pair_runs), and its equality points cluster among those.
    """
    k_half = ellip_k(0.5)
    closed = PI * math.sqrt(PI) / (2.0 * GAMMA_THREE_QUARTER ** 2)
    sq = GAMMA_QUARTER ** 4 / (16.0 * PI)
    refl = GAMMA_QUARTER * GAMMA_THREE_QUARTER - PI * family.SQRT2

    p = 0.25
    alpha = GAMMA_QUARTER ** 4 / (2.0 ** (2.0 + 2.0 * p) * PI)
    grid = _GAMMA_GRID.grid()
    m, j = pair_runs(grid)
    xs = [0.5, *grid[:m], *grid[j:]]
    k, k_mirror = ellip_k_column(xs, mirror=True)
    s = [(1.0 - r) ** p * kr + r ** p * km for r, kr, km in zip(xs, k, k_mirror)]
    g = [math.sqrt(r - r * r) for r in xs]
    n = len(xs)
    columns = {
        "k_half_closed_form": [abs(k_half - closed) / closed] * n,
        "k_half_squared": [abs(k_half * k_half - sq) / sq] * n,
        "gamma_reflection": [abs(refl)] * n,
        "chain_product_le_sum_sq": [4.0 * kr * km * (r - r * r) ** p - sr * sr
                                    for r, kr, km, sr in zip(xs, k, k_mirror, s)],
        "chain_sum_sq_le_alpha": [sr * sr - alpha for sr in s],
        "chain_alpha_le_outer": [alpha - 4.0 * (1.0 - gr) ** (2.0 * p) * kg ** 2
                                 for gr, kg in zip(g, ellip_k_column(g))],
    }
    return _report("gamma-constants", None, xs, columns, tight=_GAMMA_CHAIN)
