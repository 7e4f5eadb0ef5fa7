"""Numerical certification: sign scans, monotonicity scans, the sharp
constant a_c, and the turning-point root x_p.

Certificates here are numerical evidence, not proofs: grids plus local
refinement around near-zero values.  Endpoint offsets keep the scans on
the open interval, where the certified statements live and where several
factors genuinely vanish.  A scanned function takes a list of points and
returns its values there; evaluation goes in deterministic batches, fixed
by the grid alone.  The witness is the first violation in grid order and
always re-evaluates to its reported value.

Sign and monotonicity scans share one engine, which stops at the end of
the batch that holds the first violation; no sample past the witness is
evidence.  A batch is read item by item only where its min or max shows
an item beyond VIOLATION_TOL on the wrong side or a sample is not finite;
a refine level reads a chunk of _CHUNK items item by item only where its
least |item| could be flagged, and samples the new points of the
intervals it flags together.  inequalities reads both constants here.
ScanConfig.grid builds every grid on ScanConfig.ends; the records are
named tuples, validated however built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence
from operator import sub

from .family import COLUMN_FORMS, P_MONOTONE, l_factor, w_plus
from .specfun import DomainError

# A scanned item or a verify clause's margin is a violation only beyond
# this: floating point cannot certify strictness at an equality point itself.
VIOLATION_TOL = 1e-12

# Local refinement is capped so a function that is near zero everywhere
# (e.g. the constant 0) cannot blow the scan up; the cap keeps the
# flagged set deterministic (smallest |value| first, then leftmost).
_MAX_FLAGGED = 256
_SUBDIVISIONS = 8
# Levels of local refinement in every scan: on the default grid, at the
# nine thresholds and +-10^-k (k = 1..12) from them, no refinement loses
# 3 of the 225 verdicts and four levels change none.
_REFINE_DEPTH = 2
_CHUNK = 128  # items per chunk that a C-level min or max lets a search skip
# Grid batches double from _FIRST_BATCH points, so that a scan failing at
# once costs few samples, up to _MAX_BATCH, which bounds a batch's lists.
_FIRST_BATCH, _MAX_BATCH = 16, 1024

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SPACINGS = ("uniform", "geometric")  # of ScanConfig.grid


class InconclusiveScanError(RuntimeError):
    """A scan could not reach a verdict: its answer sits on the interval
    boundary, or a sample it would rest on is NaN or infinite."""


class ScanConfig(namedtuple("ScanConfig", "lo hi n endpoint_offset",
                            defaults=(0.0, 1.0, 10_000, 1e-9))):
    """Grid specification for all certification runs.

    The scan covers ends = [lo + endpoint_offset, hi - endpoint_offset];
    grid puts n points on it in equal steps or, for spacing "geometric",
    equal ratios, each point inside ends; n is an int.  endpoint_offset
    is a normal double, so that no step or ratio built from it overflows;
    hi - endpoint_offset < 1.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise ValueError(f"need 0 <= lo < hi <= 1; got lo={self.lo}, hi={self.hi}")
        if not isinstance(self.n, int):
            raise ValueError(f"grid size n must be an integer; got n={self.n!r}")
        if self.n < 2:
            raise ValueError(f"grid size must be at least 2; got n={self.n}")
        if not self.endpoint_offset >= 2.2250738585072014e-308:  # also NaN
            raise ValueError("endpoint_offset must be at least the smallest normal double "
                             f"2.2250738585072014e-308; got {self.endpoint_offset}")
        lo, hi = self.ends
        if lo >= hi:
            raise ValueError("offsets leave an empty scan interval")
        if not hi < 1.0:
            raise ValueError("hi - endpoint_offset rounds to 1, outside (0, 1); "
                             f"got endpoint_offset={self.endpoint_offset}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    @property
    def ends(self) -> tuple[float, float]:
        """The scanned interval's ends: lo + endpoint_offset, hi - endpoint_offset."""
        return self.lo + self.endpoint_offset, self.hi - self.endpoint_offset

    def grid(self, spacing: str = "uniform") -> list[float]:
        lo, hi = self.ends
        if spacing == "uniform":
            step = (hi - lo) / (self.n - 1)
            pts = [lo + i * step for i in range(self.n)]
        elif spacing == "geometric":
            ratio = (hi / lo) ** (1.0 / (self.n - 1))
            # the rounding of ratio can carry points near 1 above hi
            pts = [x if (x := lo * ratio ** i) < hi else hi for i in range(self.n)]
        else:
            raise ValueError(f"spacing must be one of {', '.join(SPACINGS)}; got {spacing!r}")
        pts[-1] = hi
        return pts


DEFAULT_SCAN = ScanConfig()


class SignCertificate(namedtuple("SignCertificate", "verdict witness_x witness_value "
                                 "min_abs_margin witness_step", defaults=(None,))):
    """Outcome of a sign or monotonicity scan.

    verdict is "nonnegative" / "nonpositive" when the claim held on the
    (refined) grid, or "mixed" with a witness otherwise.  For sign scans
    witness_value = fn(witness_x); for monotonicity scans the witness is
    the pair (witness_x, witness_x + witness_step) and witness_value is
    the offending difference fn(witness_x + witness_step) - fn(witness_x).
    min_abs_margin is the smallest |value| seen where the claim held.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.verdict == "mixed") != (self.witness_x is not None):
            raise ValueError("witness present if and only if verdict is mixed")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates


class ExtremumResult(namedtuple("ExtremumResult", "x_star value tolerance")):
    """Location, value and attained bracket width of a 1-D maximization."""

    __slots__ = ()


def _all_finite(col: Sequence[float]) -> bool:
    """all(map(math.isfinite, col)), from one C-level sum where it is finite:
    a NaN or infinity makes the sum non-finite, but so can the overflow of
    finite items, which the item by item test then clears."""
    return math.isfinite(sum(col)) or all(map(math.isfinite, col))


def in_batches(fn: Callable[[list[float]], list[float]], xs: list[float]) -> list[float]:
    """fn's values over xs, from calls on at most _MAX_BATCH points each,
    joined by list +=, in C."""
    out: list[float] = []
    for i in range(0, len(xs), _MAX_BATCH):
        out += fn(xs[i:i + _MAX_BATCH])
    return out


def _refine_scan(fn: Callable[[list[float]], list[float]],
                 claimed: str,
                 cfg: ScanConfig,
                 pairs: bool) -> SignCertificate:
    """The scan-and-refine engine behind certify_sign and certify_monotone.

    The checked items are the samples or, with pairs, the differences of
    consecutive samples.  The grid is sampled left to right in batches of
    _FIRST_BATCH points, doubling up to _MAX_BATCH, and the scan stops at
    the first item on the wrong side of the claim beyond VIOLATION_TOL,
    with at most the rest of its batch sampled past it; the margin is the
    smallest |item| checked before it.  Each of the _REFINE_DEPTH levels
    flags the items with |item| <= 10 * margin (at most _MAX_FLAGGED,
    smallest first, then leftmost), splits the intervals next to them into
    _SUBDIVISIONS + 1 parts, samples the new points together (in_batches)
    and splices them in; the next level flags on the merged sequence.  A
    level reads chunks of _CHUNK items item by item in order of their least
    |item| and start, until that low exceeds 10 * margin or, with
    _MAX_FLAGGED items held, the pair passes the largest (|item|, index)
    held, so it flags what a pass over every item would.
    A verdict needs every sample up to its item to be finite.
    """
    sgn = 1.0 if claimed == "nonnegative" else -1.0
    xs = cfg.grid()
    vs: list[float] = []
    margin = math.inf

    def least(items: list[float]) -> tuple[float, float]:
        """(least sgn * item, least |item|): the first gives both where it is >= 0."""
        worst = sgn * (min(items) if sgn > 0.0 else max(items))
        return worst, abs(worst) if worst >= 0.0 else min(map(abs, items))

    def check(new: list[float], ks: Sequence[int]) -> SignCertificate | None:
        """The "mixed" certificate at the first wrong item of those at
        indices ks, or None.  new holds the batch's samples: where all are
        finite and the items' min or max shows no violation, C-level min and
        sum decide; else the items are read in order, and a non-finite
        sample raises at its item."""
        nonlocal margin
        items = [vs[k] - vs[k - 1] for k in ks] if pairs else new
        worst, low = least(items)
        if worst >= -VIOLATION_TOL and math.isfinite(sum(new)):  # no violation
            margin = min(margin, low)
            return None
        for k, item in zip(ks, items):
            if not (math.isfinite(item) or pairs and _all_finite(vs[k - 1:k + 1])):
                raise InconclusiveScanError("non-finite sample; no verdict rests on NaN or inf")
            if sgn * item < -VIOLATION_TOL:
                x = xs[k - 1] if pairs else xs[k]
                return SignCertificate("mixed", x, item,
                                       margin if margin < math.inf else abs(item),
                                       xs[k] - x if pairs else None)
            if abs(item) < margin:
                margin = abs(item)
        return None

    start, size = 0, _FIRST_BATCH
    while start < len(xs):
        new = fn(xs[start:start + size])
        vs += new
        if cert := check(new, range(max(start, pairs), len(vs))):
            return cert
        start, size = len(vs), min(2 * size, _MAX_BATCH)
    for _level in range(_REFINE_DEPTH):
        items = list(map(sub, vs[1:], vs)) if pairs else vs
        threshold = 10.0 * margin
        held = []  # (|item|, index) of the chunks read: the smallest, then leftmost
        for low, s in sorted((least(items[s:s + _CHUNK])[1], s)
                             for s in range(0, len(items), _CHUNK)):
            if low > threshold or len(held) == _MAX_FLAGGED and (low, s) > held[-1]:
                break  # each item of this chunk and the rest is (|item|, index) >= (low, s)
            held += [(m, i) for i, m in enumerate(map(abs, items[s:s + _CHUNK]), s)
                     if m <= threshold]
            if len(held) >= _MAX_FLAGGED:
                held.sort()
                del held[_MAX_FLAGGED:]
        flagged = sorted(i for _, i in held)
        # the intervals on both sides of a sample, or the one a difference
        # spans: flagged ascends, so they come in order, repeats adjacent
        runs = []
        for j in dict.fromkeys(j for i in flagged
                               for j in range(max(i - 1 + pairs, 0), min(i + 1, len(xs) - 1))):
            a, b = xs[j], xs[j + 1]
            step = (b - a) / (_SUBDIVISIONS + 1)
            pts = [a + k * step for k in range(1, _SUBDIVISIONS + 1)]
            # rounding is monotone: keep the last of equal points, none at a or b
            if pts := [x for x, y in zip(pts, pts[1:] + [b]) if a < x < y]:
                runs.append((j, pts))
        if not runs:
            break
        new = in_batches(fn, [x for _, pts in runs for x in pts])
        head_xs, head_vs, ks, done, pos = [], [], [], 0, 0
        for j, pts in runs:
            head_xs += xs[done:j + 1] + pts
            head_vs += vs[done:j + 1] + new[pos:pos + len(pts)]
            ks += range(len(head_xs) - len(pts), len(head_xs) + pairs)
            done, pos = j + 1, pos + len(pts)
        xs, vs = head_xs + xs[done:], head_vs + vs[done:]
        if cert := check(new, ks):
            return cert
    return SignCertificate(claimed, None, None, margin)


def certify_sign(fn: Callable[[list[float]], list[float]],
                 claimed: str,
                 cfg: ScanConfig = DEFAULT_SCAN) -> SignCertificate:
    """Scan fn on the grid for the claimed sign, refining near zeros.

    fn maps a list of points to the list of its values there, in order.
    Returns "mixed" with the first (leftmost) strict violation beyond
    VIOLATION_TOL; otherwise refines _REFINE_DEPTH times around values
    with |value| <= 10 * min_abs_margin and returns the claimed verdict
    with the final margin.  Either verdict needs every sample up to it in
    grid order to be finite; otherwise InconclusiveScanError.
    """
    if claimed not in ("nonnegative", "nonpositive"):
        raise ValueError(f"claimed must be 'nonnegative' or 'nonpositive'; got {claimed!r}")
    return _refine_scan(fn, claimed, cfg, pairs=False)


def certify_monotone(fn: Callable[[list[float]], list[float]],
                     direction: str,
                     cfg: ScanConfig = DEFAULT_SCAN) -> SignCertificate:
    """Certify strict monotonicity via consecutive grid differences.

    fn maps a list of points to the list of its values there, as for
    certify_sign.  The difference sequence of its samples is sign-checked with
    the same tolerance, refinement and witness contract as certify_sign
    ("nonnegative" for increasing); a non-finite sample makes the scan
    inconclusive.
    """
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be 'increasing' or 'decreasing'; got {direction!r}")
    return _refine_scan(fn, "nonnegative" if direction == "increasing" else "nonpositive",
                        cfg, pairs=True)


def find_a_c(cfg: ScanConfig = DEFAULT_SCAN) -> ExtremumResult:
    """Maximize w_plus over the scan interval: coarse grid, then golden section.

    The best coarse bracket is refined to an x-width of 1e-10; the
    returned value is the best evaluation seen anywhere (so it is never
    below the grid maximum).  Ties on the grid go to the leftmost
    bracket.  Raises InconclusiveScanError if the winner sits at the
    scan boundary, which the endpoint limits 4/3 and log 4 rule out for
    any sane configuration.
    """
    pts = cfg.grid()
    vals = in_batches(COLUMN_FORMS["w_plus"], pts)
    best_v = max(vals)
    best_i = vals.index(best_v)  # the leftmost
    if best_i in (0, len(pts) - 1):
        raise InconclusiveScanError(
            f"maximum at scan boundary x={pts[best_i]!r}; widen the interval")

    a, b = pts[best_i - 1], pts[best_i + 1]
    best_x = pts[best_i]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = w_plus(c), w_plus(d)
    for x, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_x, best_v = x, v
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = w_plus(c)
            if fc > best_v:
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = w_plus(d)
            if fd > best_v:
                best_x, best_v = d, fd
    return ExtremumResult(x_star=best_x, value=best_v, tolerance=b - a)


# Scan ladder for locating the sign change of L: dense enough that the
# single + -> - transition of l_factor cannot be missed, from 1e-9 up to
# the largest double below 1 (x_p passes 1 - 1e-9 for p below about 0.043).
_XP_LADDER = (
    [10.0 ** (-j) for j in range(9, 0, -1)]
    + [i / 10.0 for i in range(2, 10)]
    + [1.0 - 10.0 ** (-j) for j in range(2, 16)]
    + [math.nextafter(1.0, 0.0)]
)


def find_x_p(p: float) -> float:
    """The unique zero of l_factor(p, .) in (0, 1), for p in (0, 1/4).

    A geometric ladder locates the single + -> - sign change, bisection
    shrinks it to float resolution, and the endpoint with the smaller
    |L| wins.  Outside (0, 1/4) the factor has constant sign and
    DomainError is raised.  Inside it, InconclusiveScanError is raised
    where the ladder's range holds no x_p: for p below about 0.0253,
    where L is still positive at the largest double below 1, and for p
    above about 1/4 - 3e-11, where x_p ~ 8(1 - 4p) lies below 1e-9; and
    where the ladder sees several sign changes.

    For roots very close to 1 (small p) the steepness of L makes the
    residual quantization-limited: no double between the bracketing
    neighbors of the true root gets closer than |L'(x_p)| * ulp(x_p).
    """
    signs = [(x, l_factor(p, x)) for x in _XP_LADDER]
    changes = [i for i in range(len(signs) - 1)
               if signs[i][1] > 0.0 >= signs[i + 1][1]]
    if not changes or signs[0][1] <= 0.0:
        if 0.0 < p < P_MONOTONE and signs[0][1] <= 0.0:
            raise InconclusiveScanError(
                f"l_factor(p={p!r}, .) is already non-positive at {_XP_LADDER[0]!r}: "
                "x_p lies below it")
        if 0.0 < p < P_MONOTONE and signs[-1][1] > 0.0:
            raise InconclusiveScanError(
                f"l_factor(p={p!r}, .) is positive up to the largest double below 1: "
                "x_p lies above it")
        raise DomainError(
            f"l_factor has no + -> - sign change for p={p!r}; "
            "a turning point exists only for p in (0, 1/4)")
    if len(changes) > 1:
        raise InconclusiveScanError(
            f"multiple sign changes for p={p!r}; scan inconsistent")
    lo, flo = signs[changes[0]]
    hi, fhi = signs[changes[0] + 1]

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        v = l_factor(p, mid)
        if v > 0.0:
            lo, flo = mid, v
        else:
            hi, fhi = mid, v
    return lo if abs(flo) <= abs(fhi) else hi
