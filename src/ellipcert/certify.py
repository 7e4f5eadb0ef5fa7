"""Numerical certification: sign scans, monotonicity scans, the sharp
constant a_c, and the turning-point root x_p.

Certificates here are numerical evidence, not proofs: grids plus local
refinement around near-zero values.  Endpoint offsets keep the scans on
the open interval, where the certified statements live and where several
factors genuinely vanish.  Grid evaluation is strictly sequential and
deterministic; a witness always re-evaluates to its reported value.

Sign and monotonicity scans share one engine, which stops at the first
violation; each refine level samples and splices in only the new points
of the intervals it flags.  ScanConfig.grid builds every grid on
ScanConfig.ends; the records are named tuples, validated however built.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable, Sequence

from .family import l_factor, w_plus

# Sign violations are only counted beyond this tolerance: floating point
# cannot certify strictness at an equality point itself.
SIGN_TOLERANCE = 1e-12

# Local refinement is capped so a function that is near zero everywhere
# (e.g. the constant 0) cannot blow the scan up; the cap keeps the
# flagged set deterministic (smallest |value| first, then leftmost).
_MAX_FLAGGED = 256
_SUBDIVISIONS = 8

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SPACINGS = ("uniform", "geometric")  # of ScanConfig.grid


class InconclusiveScanError(RuntimeError):
    """A scan could not reach a verdict: its answer sits on the interval
    boundary, or a sample it would rest on is NaN or infinite."""


class BracketNotFoundError(RuntimeError):
    """No sign change was found where a root was requested."""


class ScanConfig(namedtuple("ScanConfig", "lo hi n endpoint_offset refine_depth",
                            defaults=(0.0, 1.0, 10_000, 1e-9, 2))):
    """Grid specification for all certification runs.

    The scan covers ends = [lo + endpoint_offset, hi - endpoint_offset];
    grid puts n points on it in equal steps or, for spacing "geometric",
    equal ratios.  refine_depth levels of local refinement are applied
    around near-zero values.  endpoint_offset is a normal double, so that
    no step or ratio built from it overflows; hi - endpoint_offset < 1.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.lo < self.hi <= 1.0:
            raise ValueError(f"need 0 <= lo < hi <= 1; got lo={self.lo}, hi={self.hi}")
        if self.n < 2:
            raise ValueError(f"grid size must be at least 2; got n={self.n}")
        if not self.endpoint_offset >= 2.2250738585072014e-308:  # also NaN
            raise ValueError("endpoint_offset must be at least the smallest normal double "
                             f"2.2250738585072014e-308; got {self.endpoint_offset}")
        if self.refine_depth < 0:
            raise ValueError(f"refine_depth must be >= 0; got {self.refine_depth}")
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
            pts = [lo * ratio ** i for i in range(self.n)]
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


def _require_finite(values) -> None:
    """A NaN or infinite sample is never evidence: the scan is inconclusive."""
    if not all(map(math.isfinite, values)):
        raise InconclusiveScanError("non-finite sample; no verdict rests on NaN or inf")


def _refine_scan(fn: Callable[[float], float],
                 claimed: str,
                 cfg: ScanConfig,
                 pairs: bool) -> SignCertificate:
    """The scan-and-refine engine behind certify_sign and certify_monotone.

    The checked items are the samples fn(x) or, with pairs, the
    differences fn(x_k) - fn(x_{k-1}) of consecutive samples.  Points are
    sampled left to right and the scan stops at the first item on the
    wrong side of the claim beyond SIGN_TOLERANCE; the margin is the
    smallest |item| checked before it.  Each of the cfg.refine_depth
    levels flags the items with |item| <= 10 * margin (at most
    _MAX_FLAGGED, smallest first, then leftmost), splits the intervals
    next to them into _SUBDIVISIONS + 1 parts and samples and splices in
    only the new points; the next level flags on the merged sequence.
    A verdict needs every sample taken before it to be finite.
    """
    sgn = 1.0 if claimed == "nonnegative" else -1.0
    xs = cfg.grid()
    vs: list[float | None] = [None] * len(xs)
    if pairs:
        vs[0] = fn(xs[0])
    # indices k, ascending, whose item (vs[k], or vs[k] - vs[k-1]) is unchecked
    todo: Sequence[int] = range(pairs, len(xs))
    margin = math.inf
    for level in range(cfg.refine_depth + 1):
        if level:
            mags = [abs(b - a) for a, b in zip(vs, vs[1:])] if pairs else list(map(abs, vs))
            threshold = 10.0 * margin
            # near-monotone mags: linear-time sort (heapq.nsmallest is not)
            flagged = sorted((i for i, m in enumerate(mags) if m <= threshold),
                             key=mags.__getitem__)[:_MAX_FLAGGED]
            # the intervals on both sides of a sample, or the one a difference spans
            spans = sorted({j for i in flagged
                            for j in range(max(i - 1 + pairs, 0), min(i + 1, len(xs) - 1))})
            head_xs, head_vs, todo, done = [], [], [], 0
            for j in spans:
                a, b = xs[j], xs[j + 1]
                step = (b - a) / (_SUBDIVISIONS + 1)
                # rounding is monotone, so the new points lie strictly between a and b
                new = sorted({a + k * step for k in range(1, _SUBDIVISIONS + 1)} - {a, b})
                if new:
                    head_xs += xs[done:j + 1] + new
                    head_vs += vs[done:j + 1] + [None] * len(new)
                    todo += range(len(head_xs) - len(new), len(head_xs) + pairs)
                    done = j + 1
            if not todo:
                break
            xs, vs = head_xs + xs[done:], head_vs + vs[done:]
        for k in todo:
            v = vs[k]
            if v is None:
                v = vs[k] = fn(xs[k])
            item = v - vs[k - 1] if pairs else v
            if sgn * item < -SIGN_TOLERANCE:
                _require_finite(u for u in vs if u is not None)
                x = xs[k - 1] if pairs else xs[k]
                return SignCertificate("mixed", x, item,
                                       margin if margin < math.inf else abs(item),
                                       xs[k] - x if pairs else None)
            if abs(item) < margin:
                margin = abs(item)
        _require_finite([vs[k] for k in todo] if level else vs)  # this level's samples
    return SignCertificate(claimed, None, None, margin)


def certify_sign(fn: Callable[[float], float],
                 claimed: str,
                 cfg: ScanConfig = DEFAULT_SCAN) -> SignCertificate:
    """Scan fn on the grid for the claimed sign, refining near zeros.

    Returns "mixed" with the first (leftmost) strict violation beyond
    SIGN_TOLERANCE; otherwise refines refine_depth times around values
    with |value| <= 10 * min_abs_margin and returns the claimed verdict
    with the final margin.  Either verdict needs every sample taken
    before it to be finite; otherwise InconclusiveScanError.
    """
    if claimed not in ("nonnegative", "nonpositive"):
        raise ValueError(f"claimed must be 'nonnegative' or 'nonpositive'; got {claimed!r}")
    return _refine_scan(fn, claimed, cfg, pairs=False)


def certify_monotone(fn: Callable[[float], float],
                     direction: str,
                     cfg: ScanConfig = DEFAULT_SCAN) -> SignCertificate:
    """Certify strict monotonicity via consecutive grid differences.

    The difference sequence fn(x_{i+1}) - fn(x_i) is sign-checked with
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
    best_i = 0
    best_v = -math.inf
    for i, x in enumerate(pts):
        v = w_plus(x)
        if v > best_v:
            best_i, best_v = i, v
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
    BracketNotFoundError is raised; so it is for p below about 0.0253,
    where L is still positive at the largest double below 1, and for p
    above about 1/4 - 3e-11, where x_p ~ 8(1 - 4p) lies below 1e-9.

    For roots very close to 1 (small p) the steepness of L makes the
    residual quantization-limited: no double between the bracketing
    neighbors of the true root gets closer than |L'(x_p)| * ulp(x_p).
    """
    signs = [(x, l_factor(p, x)) for x in _XP_LADDER]
    changes = [i for i in range(len(signs) - 1)
               if signs[i][1] > 0.0 >= signs[i + 1][1]]
    if not changes or signs[0][1] <= 0.0:
        if 0.0 < p < 0.25 and signs[0][1] <= 0.0:
            raise BracketNotFoundError(
                f"l_factor(p={p!r}, .) is already non-positive at {_XP_LADDER[0]!r}: "
                "x_p lies below it")
        if 0.0 < p < 0.25 and signs[-1][1] > 0.0:
            raise BracketNotFoundError(
                f"l_factor(p={p!r}, .) is positive up to the largest double below 1: "
                "x_p lies above it")
        raise BracketNotFoundError(
            f"l_factor has no + -> - sign change for p={p!r}; "
            "a turning point exists only for p in (0, 1/4)")
    if len(changes) > 1:
        raise BracketNotFoundError(
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
