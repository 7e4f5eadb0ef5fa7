"""The paper's inequalities as consequences of its convexity theorems,
tested across the two engines.

The paper derives each inequality that verify checks from a theorem that
certify scans (IMPLIED).  So wherever certify verifies the theorem on a
grid, verify must pass each clause that rests on it on the same grid;
equivalently, wherever verify fails such a clause, certify must not
verify the theorem.  The converse does not hold: a clause can pass on a
band where its theorem fails, as sum-bounds does for a in (1.46065, a_c),
so it is not tested.

A derandomized hypothesis test draws a clause and a parameter, inside
the theorem's region or 10^-k (k = 1..12) to either side of one of its
thresholds, and runs both engines on a 2,000-point grid.  Outside a
clause's region verify does not evaluate it (the check raises DomainError
or leaves the clause out), so there the implication holds vacuously;
sum-bounds is the one check that runs on both sides of its threshold.
weighted-sum's two clauses rest on cor14-convex in its forward regime,
p >= 3(2+sqrt2)/8, and on cor14-concave in its reversed one, the
concavity window; the check picks the regime by p.

No disagreement was found.  Of the 200 draws of hypothesis 6.155 and
the four examples, 175 have certify verify the theorem, each with verify
passing, and 4 have sum-bounds fail (a = 1.3, 1.36, 1.46 and 1.4606)
with thm1-convex mixed.  Near a threshold certify verifies false claims
on this grid in 13 draws: thm3-logconcave at 7/32 - 1e-11 and - 1e-12,
cor15-monotone at 1/4 - 1e-12, cor14-convex at 0.01 and cor14-concave
from 1 + 1e-10 up to 1.01, whose counterexamples lie nearer x = 0 or
x = 1 than the grid's ends, 1e-9 away.  At each, verify leaves the
implied clause out, so no false verdict meets a failed clause.
"""

import functools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ellipcert import certify, family, inequalities  # noqa: E402
from ellipcert.certify import ScanConfig  # noqa: E402
from ellipcert.specfun import DomainError  # noqa: E402

GRID = ScanConfig(n=2000)

# (verify check, its clauses that rest on the theorem, theorem id)
IMPLIED = [
    ("sum-bounds", ("lower", "upper"), "thm1-convex"),
    ("weighted-sum", ("lower", "upper"), "cor14-convex"),
    ("weighted-sum", ("lower", "upper"), "cor14-concave"),
    ("product-pair", ("geo_upper",), "thm3-logconcave"),
    ("mean-chain", ("geometric",), "thm3-logconcave"),
    ("mean-chain", ("midpoint",), "cor14-concave"),
    ("mean-chain", ("geo_argument",), "cor15-monotone"),
]
CHECKS = {
    "sum-bounds": lambda value: inequalities.check_sum_bounds(value, GRID),
    "weighted-sum": lambda value: inequalities.check_weighted_sum(value, GRID),
    "product-pair": lambda value: inequalities.check_product_pair(value, GRID),
    "mean-chain": lambda value: inequalities.check_mean_chain_pairs(value, cfg=GRID),
}
WIDTH = 2.0  # of the window drawn from an unbounded region


@st.composite
def draws(draw, a_c):
    """(row of IMPLIED, parameter): inside the theorem's region, within
    WIDTH of an end, or at one of its thresholds or 10^-k to a side."""
    row = draw(st.sampled_from(IMPLIED))
    region = family.CLAIMS[row[2]][3] or ((a_c, math.inf),)  # thm1-convex: a >= a_c
    if draw(st.booleans()):
        lo, hi = draw(st.sampled_from(region))
        return row, draw(st.floats(lo if math.isfinite(lo) else hi - WIDTH,
                                   hi if math.isfinite(hi) else lo + WIDTH))
    threshold = draw(st.sampled_from([end for interval in region for end in interval
                                      if math.isfinite(end)]))
    side = draw(st.sampled_from((-1.0, 0.0, 1.0)))
    return row, threshold + side * 10.0 ** -draw(st.integers(1, 12))


def _engines(row, value):
    """(whether certify verifies the row's theorem at value, the row's
    clauses that verify fails there), both on GRID."""
    check, clauses, theorem = row
    _, factor, claimed, _ = family.CLAIMS[theorem]
    fn = functools.partial(family.COLUMN_FORMS[factor], value)
    verified = certify.certify_sign(fn, claimed, GRID).verdict == claimed
    if check == "weighted-sum" and family.in_region("cor14-concave", value) != (
            theorem == "cor14-concave"):
        return verified, []  # the check runs the other regime's bounds at value
    try:
        margins = CHECKS[check](value).clause_margins
    except DomainError:  # the check does not apply at value
        return verified, []
    failed = [cl for cl in clauses if margins.get(cl, -math.inf) > certify.VIOLATION_TOL]
    return verified, failed


def test_a_failed_clause_meets_a_mixed_theorem(a_c_result):
    # the implication is not vacuous: below a_s = w_plus(1/2) sum-bounds
    # fails and thm1-convex is mixed, and above a_c both hold
    assert _engines(IMPLIED[0], 1.45) == (False, ["lower"])
    assert _engines(IMPLIED[0], a_c_result.value + 0.01) == (True, [])


def test_certify_verified_implies_verify_passes(a_c_result):
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(draws(a_c_result.value))
    @example((IMPLIED[0], 1.3))
    @example((IMPLIED[0], 1.46))
    @example((IMPLIED[3], family.P_LOGCONCAVE - 1e-11))
    @example((IMPLIED[6], family.P_MONOTONE))
    def agree(case):
        row, value = case
        verified, failed = _engines(row, value)
        assert not (verified and failed), (
            f"certify verifies {row[2]} at {value!r}, but verify fails {row[0]} {failed}")

    agree()
