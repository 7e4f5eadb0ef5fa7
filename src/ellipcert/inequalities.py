"""Grid verification of the inequality corollaries of the two families.

Each check evaluates its clauses as signed margins (lhs - rhs for a
claim lhs <= rhs) over a dense grid: uniform points, geometrically
spaced points near both endpoints (where the binding cases live), and
the exact midpoint 1/2 (where several bounds are tight).  Strictness is
certified as "violation no worse than -1e-12 slack"; floating point
cannot certify strictness at an equality point itself, so strict gaps
are confirmed only away from the recorded equality points.

Each check builds one margin column per clause, a list index-aligned
with its points, from columns of K: K(x) and, for the bounds that pair
r with 1 - r, K(1 - x), each evaluated once per point.  A command that
runs several checks on one grid shares a GridColumns, so K(x) and
K(1 - x) are evaluated once per grid point for the whole command.  One
reducer, _report, turns the margin columns into the report: the maximum
per clause, the first violation and the equality points.  A margin that
is NaN or infinite is no evidence: the check raises
InconclusiveScanError (exit 3) instead of giving a verdict.

Reports are independent and deterministic; random-pair checks take an
explicit seed.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property

from . import family
from .certify import (
    DEFAULT_SCAN,
    BracketNotFoundError,
    InconclusiveScanError,
    ScanConfig,
    find_x_p,
)
from .specfun import (
    GAMMA_QUARTER,
    GAMMA_THREE_QUARTER,
    PI,
    DomainError,
    ellip_k,
)

# A clause is violated only beyond this; |margin| <= EQUALITY_TOL marks
# an equality point.  Nearby equality points cluster within CLUSTER_TOL.
VIOLATION_TOL = 1e-12
EQUALITY_TOL = 1e-9
CLUSTER_TOL = 1e-6

_GEOMETRIC_POINTS = 20


class InequalityReport(namedtuple("InequalityReport",
                                  "name param grid_n clause_margins equality_points verdict "
                                  "witness_x witness_value witness_clause x_p",
                                  defaults=(None, None, None, None))):
    """Outcome of one inequality check.

    clause_margins holds, per clause, the maximum of (lhs - rhs) over
    the grid for a claim lhs <= rhs, so a pass shows values <= ~0.
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
    runs in about linear time; equal points end up adjacent.
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
    return [x for prev, x in zip([None, *pts], pts) if x != prev]


def _cluster(points: list[tuple[int, float, float]]) -> list[float]:
    """One representative per contiguous run of equality hits.

    Near a tight point the margin is quadratically flat, so a whole band
    of grid points can sit inside EQUALITY_TOL; a run of consecutive
    grid indices (or points within CLUSTER_TOL) collapses to its
    tightest member.
    """
    out: list[float] = []
    best: tuple[float, float] | None = None
    prev_i: int | None = None
    for i, x, m in sorted(points):
        contiguous = (prev_i is not None
                      and (i - prev_i <= 1 or (best is not None and x - best[0] <= CLUSTER_TOL)))
        if best is not None and not contiguous:
            out.append(best[0])
            best = None
        if best is None or abs(m) < abs(best[1]):
            best = (x, m)
        prev_i = i
    if best is not None:
        out.append(best[0])
    return out


class GridColumns:
    """inequality_grid(cfg) with K(x) and K(1 - x), index-aligned.

    Each column is computed on first use and kept by this object alone,
    so the checks of one command that share it evaluate K once per point
    and argument, and a command that never pairs r with 1 - r never
    computes K(1 - x).  k_mirror raises DomainError, naming
    endpoint_offset, where 1 - x rounds to 1 at the first grid point.  A
    grid check takes either a GridColumns or a plain ScanConfig, for
    which it builds its own.
    """

    def __init__(self, cfg: ScanConfig = DEFAULT_SCAN):
        self.cfg = cfg

    @cached_property
    def xs(self) -> list[float]:
        return inequality_grid(self.cfg)

    @cached_property
    def k(self) -> list[float]:
        return [ellip_k(x) for x in self.xs]

    @cached_property
    def k_mirror(self) -> list[float]:
        x = self.xs[0]  # the smallest point has the largest mirror point
        if not 1.0 - x < 1.0:
            raise DomainError(
                f"endpoint_offset={self.cfg.endpoint_offset!r}: at the grid point "
                f"x={x!r} the mirror point 1 - x rounds to 1, outside (0, 1)")
        return [ellip_k(1.0 - x) for x in self.xs]


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
    first violation in point order, ties going to clause order.  An
    empty column, or one that holds a NaN or an infinity, is no evidence:
    InconclusiveScanError.
    """
    if not all(col and all(map(math.isfinite, col)) for col in columns.values()):
        raise InconclusiveScanError(f"{name}: a clause margin is NaN or infinite")
    margins = {cl: max(col) for cl, col in columns.items()}
    firsts = [(next(i for i, m in enumerate(col) if m > VIOLATION_TOL), j, cl)
              for j, (cl, col) in enumerate(columns.items()) if margins[cl] > VIOLATION_TOL]
    hits = [(i, x, m) for cl, col in columns.items() if cl in tight
            for i, (x, m) in enumerate(zip(xs, col)) if abs(m) <= EQUALITY_TOL]
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
    f_from_k = family.f_from_k
    total = [f_from_k(a, r, kr) + f_from_k(a, 1.0 - r, km)
             for r, kr, km in zip(cols.xs, cols.k, cols.k_mirror)]
    return _report("sum-bounds", a, cols.xs,
                   {"lower": [lower - t for t in total], "upper": [t - upper for t in total]},
                   tight=("lower",))


def check_weighted_sum(p: float,
                       grid: ScanConfig | GridColumns = DEFAULT_SCAN) -> InequalityReport:
    """K(1/2)/2^(p-1) <= h(p,r) + h(p,1-r) < pi/2 for p >= 3(2+sqrt2)/8.

    For p in the concavity window [3(2-sqrt2)/8, 1] both bounds reverse.
    Midpoint equality at r = 1/2 in both regimes.
    """
    if p >= family.P_CONVEX_HI:
        convex = True
    elif family.P_CONCAVE_LO <= p <= 1.0:
        convex = False
    else:
        raise DomainError(
            f"weighted-sum bounds are claimed only for p >= {family.P_CONVEX_HI!r} "
            f"or p in [{family.P_CONCAVE_LO!r}, 1]; got p={p!r}")
    mid_bound = ellip_k(0.5) / 2.0 ** (p - 1.0)
    below, above = (mid_bound, PI / 2) if convex else (PI / 2, mid_bound)
    cols = _columns(grid)
    # h(p, r) + h(p, 1 - r), with 1 - (1 - r) rounded as h(p, 1 - r) rounds it
    total = [(1.0 - r) ** p * kr + (1.0 - (1.0 - r)) ** p * km
             for r, kr, km in zip(cols.xs, cols.k, cols.k_mirror)]
    return _report("weighted-sum", p, cols.xs,
                   {"lower": [below - t for t in total], "upper": [t - above for t in total]},
                   tight=("lower",) if convex else ("upper",))


def check_product_pair(p: float,
                       grid: ScanConfig | GridColumns = DEFAULT_SCAN) -> InequalityReport:
    """Product-side bounds of the power family.

    sum_lower (p >= 0):  2^(1+p) K(1/2) (r-r^2)^p <= r^p K(r) + (1-r)^p K(1-r)
    geo_upper (p >= 7/32): sqrt((r-r^2)^p K(r) K(1-r)) <= K(1/2) / 2^p
    Equality at r = 1/2 for both.
    """
    if p < 0.0:
        raise DomainError(f"product-pair bounds need p >= 0; got p={p!r}")
    k_half = ellip_k(0.5)
    sum_scale = 2.0 ** (1.0 + p) * k_half
    geo_bound = k_half / 2.0 ** p
    cols = _columns(grid)
    xs, k, k_mirror = cols.xs, cols.k, cols.k_mirror
    w = [(r - r * r) ** p for r in xs]
    columns = {"sum_lower": [sum_scale * wr - (r ** p * kr + (1.0 - r) ** p * km)
                             for r, wr, kr, km in zip(xs, w, k, k_mirror)]}
    if p >= family.P_LOGCONCAVE:
        columns["geo_upper"] = [math.sqrt(wr * kr * km) - geo_bound
                                for wr, kr, km in zip(w, k, k_mirror)]
    return _report("product-pair", p, xs, columns, tight=tuple(columns))


def _mean_chain(p: float, xs: list[float], ys: list[float], tight: bool) -> InequalityReport:
    """The mean-chain clauses that apply at p, over the pairs (xs[i], ys[i]).

    geometric   (p >= 7/32):          sqrt(h(x)h(y)) <= h((x+y)/2)
    midpoint    (p in [p_lo, 1]):     (h(x)+h(y))/2  <= h((x+y)/2)
    geo_argument(p >= 1/4):           h((x+y)/2)     <= h(sqrt(xy))
    All are equalities iff x = y.  p_lo > 7/32, so geometric applies
    wherever another clause does, and h is evaluated once at each of x,
    y and (x+y)/2, and at sqrt(xy) for geo_argument.
    """
    if not p >= family.P_LOGCONCAVE:  # also NaN
        raise DomainError(f"no mean-chain clause applies at p={p!r}")
    h = family.h
    hx = [h(p, x) for x in xs]
    hy = [h(p, y) for y in ys]
    hm = [h(p, 0.5 * (x + y)) for x, y in zip(xs, ys)]
    columns = {"geometric": [math.sqrt(a * b) - m for a, b, m in zip(hx, hy, hm)]}
    if family.P_CONCAVE_LO <= p <= 1.0:
        columns["midpoint"] = [0.5 * (a + b) - m for a, b, m in zip(hx, hy, hm)]
    if p >= family.P_MONOTONE:
        columns["geo_argument"] = [m - h(p, math.sqrt(x * y)) for x, y, m in zip(xs, ys, hm)]
    return _report("mean-chain", p, xs, columns, tight=tuple(columns) if tight else ())


def check_mean_chain(p: float, x: float, y: float) -> InequalityReport:
    """All mean-chain clauses applicable at p, for one pair (x, y)."""
    return _mean_chain(p, [x], [y], tight=True)


def check_mean_chain_pairs(p: float, n_pairs: int = 1000, seed: int = 0,
                           cfg: ScanConfig = DEFAULT_SCAN) -> InequalityReport:
    """Mean-chain clauses over seeded random pairs in the scan interval."""
    rng = random.Random(seed)
    lo, hi = cfg.ends
    draws = [rng.uniform(lo, hi) for _ in range(2 * n_pairs)]
    return _mean_chain(p, draws[::2], draws[1::2], tight=False)


def check_k_envelope(p: float,
                     grid: ScanConfig | GridColumns = DEFAULT_SCAN) -> InequalityReport:
    """Power-law envelopes of K.

    p >= 1/4:    (pi/2)(1-r)^p < K(r) < (pi/2)/(1-r)^p on (0,1).
    0 < p < 1/4: (pi/2)/(1-r)^p < K(r) < (1-x_p)^p K(x_p)/(1-r)^p on
                 (0, x_p), with x_p located by certify.find_x_p.  For p
                 below about 0.0253, x_p lies above the largest double
                 below 1, and for p above about 1/4 - 3e-11 below the
                 first ladder point; no grid can be built there and the
                 check raises InconclusiveScanError.
    For p < 1/4 the grid's scan ends at min(hi, x_p): where hi <= x_p it
    is grid itself, and where lo and the offsets leave no point below x_p
    the check raises InconclusiveScanError, naming x_p.
    """
    if not p > 0.0:
        raise DomainError(f"k-envelope needs p > 0; got p={p!r}")
    cols = _columns(grid)
    if p >= family.P_MONOTONE:
        xs, k = cols.xs, cols.k
        # (1 - r)^p is smallest at the last grid point
        if (1.0 - xs[-1]) ** p == 0.0:
            raise DomainError(
                f"k-envelope: (1 - r)^p underflows to 0 at r={xs[-1]!r} for p={p!r}")
        w = [(1.0 - r) ** p for r in xs]
        return _report("k-envelope", p, xs,
                       {"lower": [(PI / 2) * wr - kr for wr, kr in zip(w, k)],
                        "upper": [kr - (PI / 2) / wr for wr, kr in zip(w, k)]})
    try:
        x_p = find_x_p(p)
    except BracketNotFoundError as exc:
        raise InconclusiveScanError(str(exc)) from exc
    if cols.cfg.hi > x_p:  # the scan ends at min(hi, x_p)
        try:
            cols = GridColumns(cols.cfg._replace(hi=x_p))
        except ValueError as exc:
            raise InconclusiveScanError(
                f"k-envelope: for p={p!r} no scan point lies below x_p={x_p!r}") from exc
    cap = (1.0 - x_p) ** p * ellip_k(x_p)
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
    K(1/2)^2 = Gamma(1/4)^4 / (16 pi) to 1e-12 relative,
    Gamma(1/4) Gamma(3/4) = pi sqrt(2) to 1e-13, and the p = 1/4
    product/sum chain against alpha = Gamma(1/4)^4 / (2^(2+2p) pi)
    on a grid led by r = 1/2, where the chain is an equality.  The
    identities do not depend on r: their columns are constant, so a
    failed identity is reported at r = 1/2.
    """
    k_half = ellip_k(0.5)
    closed = PI * math.sqrt(PI) / (2.0 * GAMMA_THREE_QUARTER ** 2)
    sq = GAMMA_QUARTER ** 4 / (16.0 * PI)
    refl = GAMMA_QUARTER * GAMMA_THREE_QUARTER - PI * family.SQRT2

    p = 0.25
    alpha = GAMMA_QUARTER ** 4 / (2.0 ** (2.0 + 2.0 * p) * PI)
    xs = [0.5, *_GAMMA_GRID.grid()]
    k = [ellip_k(r) for r in xs]
    k_mirror = [ellip_k(1.0 - r) for r in xs]
    s = [(1.0 - r) ** p * kr + r ** p * km for r, kr, km in zip(xs, k, k_mirror)]
    g = [math.sqrt(r - r * r) for r in xs]
    n = len(xs)
    columns = {
        "k_half_closed_form": [abs(k_half - closed) / closed - 1e-12] * n,
        "k_half_squared": [abs(k_half * k_half - sq) / sq - 1e-12] * n,
        "gamma_reflection": [abs(refl) - 1e-13] * n,
        "chain_product_le_sum_sq": [4.0 * kr * km * (r - r * r) ** p - sr * sr
                                    for r, kr, km, sr in zip(xs, k, k_mirror, s)],
        "chain_sum_sq_le_alpha": [sr * sr - alpha for sr in s],
        "chain_alpha_le_outer": [alpha - 4.0 * (1.0 - gr) ** (2.0 * p) * ellip_k(gr) ** 2
                                 for gr in g],
    }
    return _report("gamma-constants", None, xs, columns, tight=_GAMMA_CHAIN)
