"""Seeded command lists for the three workloads, and the check of every output.

A case is one ``ellipcert`` argv, the exit code it must return, and a
function that returns an error message for a wrong output (None when the
output is right).  The expected outcome of a ``certify`` case follows from
the side of the sharp threshold its value sits on; the references below are
computed here, independently of the package.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# a_c to 21 digits, from a 40-digit mpmath maximization of w_plus.
A_C_REF = 1.46156929504229169984
P_CONVEX_HI = 3.0 * (2.0 + math.sqrt(2.0)) / 8.0
P_CONCAVE_LO = 3.0 * (2.0 - math.sqrt(2.0)) / 8.0
LOG4 = math.log(4.0)

FORMATS = ("json", "csv", "text")
TABLE_N = 20_000
# Interval ends of every default grid (ScanConfig: [0, 1], offset 1e-9).
GRID_LO = 1e-9
GRID_HI = 1.0 - 1e-9

# theorem id -> (threshold argument, side of it on which the claim holds:
# +1 at and above, -1 at and below, 0 only at the threshold itself,
# smallest and largest offset the default grid resolves)
THEOREMS = {
    "thm1-convex": (repr(A_C_REF), +1, 1e-3, 1e-2),
    "thm1-concave": ("4/3", 0, 1e-3, 1e-2),
    "thm2-convex": (repr(LOG4), -1, 1e-3, 1e-2),
    "thm2-concave": ("8/5", +1, 1e-3, 1e-2),
    "thm3-logconcave": ("7/32", +1, 1e-3, 1e-2),
    # p + G(x) > 0 needs 1/(2K(x)) < p, and K only reaches ~12 at the grid's
    # last point 1 - 1e-9: offsets below ~0.05 have no witness on the grid.
    "thm3-logconvex": ("0", -1, 0.05, 0.1),
    "cor14-convex": (repr(P_CONVEX_HI), +1, 1e-3, 1e-2),
    "cor14-concave": (repr(P_CONCAVE_LO), +1, 1e-3, 1e-2),
    "cor15-monotone": ("1/4", +1, 1e-3, 1e-2),
}

CLAIMED = {
    "thm1-convex": "nonnegative", "thm1-concave": "nonpositive",
    "thm2-convex": "nonnegative", "thm2-concave": "nonpositive",
    "thm3-logconcave": "nonnegative", "thm3-logconvex": "nonpositive",
    "cor14-convex": "nonnegative", "cor14-concave": "nonpositive",
    "cor15-monotone": "nonpositive",
}


@dataclass(frozen=True)
class Case:
    argv: tuple[str, ...]
    code: int
    check: Callable[[str], str | None]


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not valid JSON")


def parse_json(text: str):
    """Strict JSON: NaN and Infinity are rejected, as the JSON grammar does."""
    return json.loads(text, parse_constant=_reject_constant)


def rows_of(text: str, fmt: str) -> list:
    """Result rows: dicts for json and csv, token lists for text.

    The manifest must parse as strict JSON in every format.
    """
    if fmt == "json":
        doc = parse_json(text)
        if set(doc) != {"manifest", "results"}:
            raise ValueError(f"json keys {sorted(doc)}")
        return doc["results"]
    lines = text.splitlines()
    prefix = "# manifest: " if fmt == "csv" else "manifest: "
    if not lines or not lines[0].startswith(prefix):
        raise ValueError("missing manifest line")
    parse_json(lines[0][len(prefix):])
    if fmt == "csv":
        return list(csv.DictReader(lines[1:]))
    return [line.split() for line in lines[2:]]


def ref_k(x: float) -> float:
    """K(x) at parameter x by a plain AGM loop, independent of the package."""
    a, b = 1.0, math.sqrt(1.0 - x)
    while a - b > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def _guard(check: Callable[[str], str | None]) -> Callable[[str], str | None]:
    """Turn any parse error of the output into a failure message."""
    def guarded(text: str) -> str | None:
        try:
            return check(text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unparsable output: {type(exc).__name__}: {exc}"
    return guarded


def _with_format(argv: list[str], fmt: str) -> tuple[str, ...]:
    return tuple(argv + ["--format", fmt])


# -- certify workload ---------------------------------------------------------

def _check_constants(fmt: str):
    exact = {"p_logconcave": 7.0 / 32.0, "p_monotone": 0.25, "a_recip_concave": 1.6,
             "a_recip_convex": LOG4, "p_convex_hi": P_CONVEX_HI,
             "p_concave_lo": P_CONCAVE_LO, "K_half": ref_k(0.5)}

    def check(text: str) -> str | None:
        values = {r["name"]: float(r["value"]) for r in rows_of(text, fmt)}
        if abs(values["a_c"] - A_C_REF) > 1e-12:
            return f"a_c = {values['a_c']!r}, reference {A_C_REF!r}"
        for name, ref in exact.items():
            if abs(values[name] - ref) > 1e-15 * abs(ref):
                return f"{name} = {values[name]!r}, reference {ref!r}"
        return None
    return _guard(check)


def _check_certify(fmt: str, claimed: str, holds: bool):
    want = claimed if holds else "mixed"

    def check(text: str) -> str | None:
        rows = rows_of(text, fmt)
        if len(rows) != 1:
            return f"{len(rows)} result rows"
        if fmt == "text":
            got = "mixed" if "mixed" in rows[0] else claimed
        else:
            got = rows[0]["verdict"]
            if (got == "mixed") != (rows[0]["witness_x"] not in (None, "")):
                return "witness present without a mixed verdict, or the reverse"
        return None if got == want else f"verdict {got}, expected {want}"
    return _guard(check)


def certify_cases(rng: random.Random) -> list[Case]:
    """`constants` and each theorem at, just above and just below its threshold."""
    fmt = rng.choice(("json", "csv"))  # text rounds a_c to 12 digits
    cases = [Case(_with_format(["constants"], fmt), 0, _check_constants(fmt))]
    for thm, (at, side, lo, hi) in THEOREMS.items():
        num, _, den = at.partition("/")
        t = float(num) / float(den or 1)
        delta = rng.uniform(lo, hi)
        for value, pos in ((at, 0), (repr(t + delta), +1), (repr(t - delta), -1)):
            holds = pos == 0 or pos == side
            fmt = rng.choice(FORMATS)
            cases.append(Case(_with_format(["certify", thm, value], fmt),
                              0 if holds else 1,
                              _check_certify(fmt, CLAIMED[thm], holds)))
    rng.shuffle(cases)
    return cases


# -- verify workload ----------------------------------------------------------

def _check_verify(fmt: str):
    def check(text: str) -> str | None:
        rows = rows_of(text, fmt)
        if not rows:
            return "no result rows"
        if fmt == "text":
            tokens = {t for row in rows for t in row}
            return "a check failed" if "fail" in tokens or "pass" not in tokens else None
        bad = [r["check"] for r in rows if r["verdict"] != "pass"]
        return f"checks failed: {bad}" if bad else None
    return _guard(check)


def verify_cases(rng: random.Random) -> list[Case]:
    """`verify all` plus every selector, with parameters where its claim holds.

    Each selector runs in each of its parameter regimes, so the mix of
    command costs is the same for every seed: six short commands, eight
    grid checks of about the same cost, where the median latency falls, and
    two `verify all`, the slowest, which set the tail.
    """
    def p(lo, hi):
        return repr(rng.uniform(lo, hi))

    argvs = [
        ["verify", "all", "--seed", str(rng.randrange(1000))],
        ["verify", "all", "--seed", str(rng.randrange(1000))],
        ["verify", "gamma-constants"],
        # the midpoint clause applies for p <= 1 only
        ["verify", "mean-chain", "--p", p(P_CONCAVE_LO, 1.0), "--seed", str(rng.randrange(1000))],
        ["verify", "mean-chain", "--p", p(1.0, 1.5), "--seed", str(rng.randrange(1000))],
        # p < 1/4 locates the turning point x_p first (find_x_p)
        ["verify", "k-envelope", "--p", p(0.1, 0.25)],
        ["verify", "k-envelope", "--p", p(0.25, 1.0)],
        # geo_upper applies from p = 7/32 on
        ["verify", "product-pair", "--p", p(0.0, 7.0 / 32.0)],
        ["verify", "product-pair", "--p", p(7.0 / 32.0, 1.5)],
        ["verify", "product-pair", "--p", p(7.0 / 32.0, 1.5)],
        ["verify", "sum-bounds", "--a", p(1.47, 2.0)],
        ["verify", "sum-bounds", "--a", p(1.47, 2.0)],
        ["verify", "sum-bounds", "--a", p(1.47, 2.0)],
        ["verify", "weighted-sum", "--p", p(P_CONVEX_HI, 2.0)],
        ["verify", "weighted-sum", "--p", p(P_CONVEX_HI, 2.0)],
        ["verify", "weighted-sum", "--p", p(P_CONCAVE_LO, 1.0)],
    ]
    cases = []
    for argv in argvs:
        fmt = rng.choice(FORMATS)
        cases.append(Case(_with_format(argv, fmt), 0, _check_verify(fmt)))
    rng.shuffle(cases)
    return cases


# -- table workload -----------------------------------------------------------

def _x_grid_error(xs: list[float], spacing: str) -> str | None:
    if len(xs) != TABLE_N:
        return f"{len(xs)} rows, expected {TABLE_N}"
    if abs(xs[0] - GRID_LO) > 1e-11 * GRID_LO or abs(xs[-1] - GRID_HI) > 1e-11:
        return f"grid ends {xs[0]!r}, {xs[-1]!r}"
    if spacing == "uniform":
        second = GRID_LO + (GRID_HI - GRID_LO) / (TABLE_N - 1)
    else:
        second = GRID_LO * (GRID_HI / GRID_LO) ** (1.0 / (TABLE_N - 1))
    if abs(xs[1] - second) > 1e-9 * second:
        return f"second grid point {xs[1]!r}, expected {second!r} for {spacing} spacing"
    if any(b <= a for a, b in zip(xs, xs[1:])):
        return "x column not increasing"
    return None


def _value_check(fn: str, p: float | None, rel: float) -> Callable[[float, float], bool]:
    """Per-row property of each tabulated function, to relative tolerance rel
    in both columns (K is steep near 1, so a rounded x moves K a lot)."""
    if fn == "K":  # increasing, so K(x) is bracketed by K at the ends of x's rounding
        return lambda x, v: (ref_k(x * (1.0 - rel)) * (1.0 - rel) <= v
                             <= ref_k(x * (1.0 + rel)) * (1.0 + rel))
    if fn == "w_plus":  # 4/3 at 0+, maximum a_c, log 4 at 1-
        return lambda x, v: 4.0 / 3.0 < v <= A_C_REF * (1.0 + rel)
    if fn == "G":  # increasing map of (0, 1) onto (-7/32, 0)
        return lambda x, v: -7.0 / 32.0 * (1.0 + rel) <= v < 0.0
    if p >= P_CONVEX_HI:  # J >= 0: h(p, .) convex
        return lambda x, v: v >= -1e-12
    return lambda x, v: v <= 1e-12  # p in [p_concave_lo, 1]: h(p, .) concave


def _check_table(fmt: str, fn: str, p: float | None, spacing: str):
    rel = 1e-11 if fmt == "text" else 1e-14  # text rounds to 12 digits
    ok = _value_check(fn, p, rel)

    def check(text: str) -> str | None:
        rows = rows_of(text, fmt)
        if fmt == "text":
            pairs = [(float(r[0]), float(r[1])) for r in rows]
        else:
            pairs = [(float(r["x"]), float(r["value"])) for r in rows]
        err = _x_grid_error([x for x, _ in pairs], spacing)
        if err:
            return err
        bad = next(((x, v) for x, v in pairs if not ok(x, v)), None)
        if bad:
            return f"{fn}({bad[0]!r}) = {bad[1]!r} fails its reference property"
        if fn == "G" and any(b < a - 1e-11 for (_, a), (_, b) in zip(pairs, pairs[1:])):
            return "G not increasing"
        return None
    return _guard(check)


def table_cases(rng: random.Random) -> list[Case]:
    """K, w_plus, J and G on 20k-point grids, in every format and both spacings."""
    j_p = (rng.uniform(P_CONVEX_HI, 2.0) if rng.random() < 0.5
           else rng.uniform(P_CONCAVE_LO, 1.0))
    cases = []
    for fn, p in (("K", None), ("w_plus", None), ("J", j_p), ("G", None)):
        for fmt in FORMATS:
            for spacing in ("uniform", "geometric"):
                argv = ["table", fn, "--grid-n", str(TABLE_N), "--spacing", spacing]
                if p is not None:
                    argv += ["--param", f"p={p!r}"]
                cases.append(Case(_with_format(argv, fmt), 0,
                                  _check_table(fmt, fn, p, spacing)))
    rng.shuffle(cases)
    return cases


GENERATORS = {"certify": certify_cases, "verify": verify_cases, "table": table_cases}


def build(workload: str, seed: int) -> list[Case]:
    """The workload's command list; the same seed gives the same argv list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
