"""Inequality-grid tests: bounds, midpoint sharpness, negative controls."""

import math
import re

import pytest

import oracles
from ellipcert import cli, family, inequalities, specfun
from ellipcert.certify import (
    DEFAULT_SCAN,
    VIOLATION_TOL,
    InconclusiveScanError,
    ScanConfig,
    certify_monotone,
    find_x_p,
)
from ellipcert.inequalities import (
    EQUALITY_TOL,
    GridColumns,
    check_gamma_constant_identities,
    check_k_envelope,
    check_mean_chain,
    check_mean_chain_pairs,
    check_product_pair,
    check_sum_bounds,
    check_weighted_sum,
    inequality_grid,
)
from ellipcert.specfun import DomainError, ellip_k

PI = math.pi

FAST = ScanConfig(n=2000)

# Oracle-pinned: f(1.47, 1e-6) + f(1.47, 1 - 1e-6); the upper bound
# 1 + pi/(2a) is approached only at the 1/log(r) rate, so the gap at
# r = 1e-6 is still ~1e-2.
SUM_AT_1E6 = 2.058577635048677
SUM_UPPER_147 = 2.0685689297924467


def _margins_ok(report, slack=1e-12):
    return all(m <= slack for m in report.clause_margins.values())


class TestSumBounds:
    def test_pass_at_147(self):
        rep = check_sum_bounds(1.47, FAST)
        assert rep.verdict == "pass"
        assert _margins_ok(rep)

    def test_midpoint_equality_only(self):
        rep = check_sum_bounds(1.47, FAST)
        assert len(rep.equality_points) == 1
        assert abs(rep.equality_points[0] - 0.5) <= 1e-6

    def test_lower_bound_tight_at_half(self):
        a = 1.47
        total = family.f(a, 0.5) + family.f(a, 0.5)
        assert total == pytest.approx(4 * ellip_k(0.5) / (2 * a + math.log(2.0)),
                                      abs=1e-12)

    def test_endpoint_gap_value(self):
        a = 1.47
        total = family.f(a, 1e-6) + family.f(a, 1.0 - 1e-6)
        assert total == pytest.approx(SUM_AT_1E6, rel=1e-13)
        assert total < SUM_UPPER_147
        # the gap closes like (a - log4)/theta: about 1e-2 at r = 1e-6
        assert SUM_UPPER_147 - total == pytest.approx(9.9913e-3, rel=1e-3)

    @pytest.mark.xfail(
        strict=True,
        reason="'within 1e-3 of 1 + pi/(2a) at r = 1e-6' is not attainable: "
               "the sum approaches its endpoint bound at the 1/log(r) rate, "
               "gap ~1e-2 at 1e-6; 1e-3 would need r below 1e-70")
    def test_endpoint_gap_below_1e3(self):
        total = family.f(1.47, 1e-6) + family.f(1.47, 1.0 - 1e-6)
        assert SUM_UPPER_147 - total <= 1e-3

    def test_negative_control(self):
        rep = check_sum_bounds(1.3, FAST)
        assert rep.verdict == "fail"
        assert rep.witness_x is not None
        assert rep.witness_value > 1e-12

    def test_symmetry(self):
        a = 1.47
        for r in (0.1, 0.25, 0.4):
            s1 = family.f(a, r) + family.f(a, 1 - r)
            s2 = family.f(a, 1 - r) + family.f(a, 1 - (1 - r))
            assert abs(s1 - s2) <= 1e-13

    def test_two_sided_monotonicity(self):
        a = 1.47
        total = lambda r: family.f(a, r) + family.f(a, 1 - r)
        left = certify_monotone(oracles.columns(total), "decreasing",
                                ScanConfig(lo=0.0, hi=0.5, n=1500))
        right = certify_monotone(oracles.columns(total), "increasing",
                                 ScanConfig(lo=0.5, hi=1.0, n=1500))
        assert left.verdict == "nonpositive"
        assert right.verdict == "nonnegative"


class TestWeightedSum:
    def test_forward_regimes(self):
        for p in (family.P_CONVEX_HI, 1.3):
            rep = check_weighted_sum(p, FAST)
            assert rep.verdict == "pass"
            assert len(rep.equality_points) == 1
            assert abs(rep.equality_points[0] - 0.5) <= 1e-6

    def test_reversed_regimes(self):
        for p in (family.P_CONCAVE_LO, 0.5, 1.0):
            rep = check_weighted_sum(p, FAST)
            assert rep.verdict == "pass"

    def test_midpoint_equality_exact(self):
        p = family.P_CONVEX_HI
        total = family.h(p, 0.5) + family.h(p, 0.5)
        assert total == pytest.approx(ellip_k(0.5) / 2 ** (p - 1), abs=1e-12)

    def test_outside_regimes_rejected(self):
        with pytest.raises(DomainError):
            check_weighted_sum(0.15, FAST)
        with pytest.raises(DomainError):
            check_weighted_sum(1.1, FAST)

    @pytest.mark.parametrize("p", [1025.0, 1e300])
    def test_overflow_names_check_and_p(self, p):
        message = f"weighted-sum: 2^(p - 1) overflows for p={p!r}"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            check_weighted_sum(p, FAST)


class TestProductPair:
    def test_item3_at_zero_exponent(self):
        # p = 0 reduces to 2K(1/2) <= K(r) + K(1-r)
        rep = check_product_pair(0.0, FAST)
        assert rep.verdict == "pass"
        assert "geo_upper" not in rep.clause_margins
        for r in (0.1, 0.3):
            assert 2 * ellip_k(0.5) <= ellip_k(r) + ellip_k(1 - r)

    def test_item4_boundary_equality(self):
        p = 7.0 / 32.0
        lhs = math.sqrt(0.25 ** p * ellip_k(0.5) ** 2)
        assert lhs == pytest.approx(ellip_k(0.5) / 2 ** p, abs=1e-12)
        rep = check_product_pair(p, FAST)
        assert rep.verdict == "pass"
        assert "geo_upper" in rep.clause_margins

    def test_generic(self):
        rep = check_product_pair(0.5, FAST)
        assert rep.verdict == "pass"
        assert len(rep.equality_points) == 1
        assert abs(rep.equality_points[0] - 0.5) <= 1e-6

    def test_negative_p_rejected(self):
        with pytest.raises(DomainError):
            check_product_pair(-0.1, FAST)

    @pytest.mark.parametrize("p", [45.0, 500.0])
    def test_vacuous_geo_upper_is_inconclusive(self, p):
        # K(1/2)/2^p is the larger side, and it lies within VIOLATION_TOL of
        # 0 from p = log2(K(1/2)/VIOLATION_TOL) ~ 40.75 on
        bound = ellip_k(0.5) / 2.0 ** p
        assert bound <= VIOLATION_TOL
        with pytest.raises(InconclusiveScanError,
                           match=rf"^product-pair: geo_upper's sides are at most "
                                 rf"{re.escape(repr(bound))} for p={p!r}, within VIOLATION_TOL"):
            check_product_pair(p, FAST)

    def test_geo_upper_just_above_tolerance_passes(self):
        assert ellip_k(0.5) / 2.0 ** 40 == pytest.approx(1.69e-12, rel=1e-3)
        rep = check_product_pair(40.0, FAST)
        assert rep.verdict == "pass"
        assert set(rep.clause_margins) == {"sum_lower", "geo_upper"}

    @pytest.mark.parametrize("p, form", [(1023.5, "(1 + p)"), (1024.0, "p"), (2000.0, "p")])
    def test_overflow_names_check_and_p(self, p, form):
        # before any grid work, so its message is the check's alone
        message = f"product-pair: 2^{form} overflows for p={p!r}"
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            check_product_pair(p, FAST)


class TestMeanChain:
    def test_diagonal_is_equality(self):
        rep = check_mean_chain(0.5, 0.3, 0.3)
        assert rep.verdict == "pass"
        assert all(m == 0.0 for m in rep.clause_margins.values())
        assert rep.equality_points == [0.3]

    def test_pairs_at_half(self):
        rep = check_mean_chain_pairs(0.5, seed=0, cfg=FAST)
        assert rep.verdict == "pass"
        assert set(rep.clause_margins) == {"geometric", "midpoint", "geo_argument"}
        assert _margins_ok(rep)

    def test_geometric_clause_at_p03(self):
        rep = check_mean_chain_pairs(0.3, seed=1, cfg=FAST)
        assert rep.verdict == "pass"
        assert "geometric" in rep.clause_margins

    def test_clause_regimes(self):
        # between 7/32 and the concavity window: geometric only
        assert set(_clauses_at(0.219)) == {"geometric"}
        # inside the window but below 1/4: geometric + midpoint
        assert set(_clauses_at(0.222)) == {"geometric", "midpoint"}
        # large p: the midpoint clause drops out above 1
        assert set(_clauses_at(2.0)) == {"geometric", "geo_argument"}
        with pytest.raises(DomainError):
            _clauses_at(0.1)

    @pytest.mark.parametrize("x, y, bad", [
        (0.0, 0.4, 0.0), (0.3, 1.0, 1.0), (math.nan, 0.4, math.nan),
    ])
    def test_point_outside_unit_interval(self, x, y, bad):
        # family.h's DomainError, for the first point outside (0, 1)
        with pytest.raises(DomainError) as exc:
            check_mean_chain(0.5, x, y)
        assert str(exc.value) == f"h must lie in the open interval (0, 1); got {bad!r}"

    @pytest.mark.parametrize("x, y", [(1e-200, 1e-200), (1e-200, 3e-200)])
    def test_underflowed_geometric_mean_is_no_domain_error(self, x, y):
        # sqrt(xy) underflows to 0.0, a point the caller never gave: h is
        # pi/2 to the bit there, as at every point below 1e-16
        assert inequalities._h_column(0.5, [0.0, x, y]) == [math.pi / 2] * 3
        rep = check_mean_chain(0.5, x, y)
        assert rep.clause_margins == dict.fromkeys(("geometric", "midpoint", "geo_argument"), 0.0)
        assert (rep.verdict, rep.equality_points) == ("pass", [x])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_underflowed_power_is_domain_error(self, seed):
        # (1 - r)^1e300 is 0.0 at every drawn point, which made every margin
        # exactly 0; the test is at the interval's upper end, for any seed
        with pytest.raises(DomainError) as exc:
            check_mean_chain_pairs(1e300, seed=seed)
        assert str(exc.value) == ("mean-chain: (1 - r)^p underflows to 0 at "
                                  f"r={DEFAULT_SCAN.ends[1]!r} for p=1e+300")

    def test_underflowed_power_at_one_pair(self):
        # the larger point of the pair carries the smallest power
        with pytest.raises(DomainError, match=r"underflows to 0 at r=0\.4 for p=1e\+300"):
            check_mean_chain(1e300, 0.3, 0.4)

    def test_every_h_below_tolerance_is_inconclusive(self):
        # h(35, r) is below 1e-270 at both points and their means, so no
        # margin can exceed VIOLATION_TOL
        with pytest.raises(InconclusiveScanError, match=r"every h\(p, r\) is at most .* p=35"):
            check_mean_chain(35.0, 0.99999999, 0.999999995)

    def test_large_power_short_of_underflow_runs(self):
        # (1 - r)^35 at the default upper end 1 - 1e-9 is about 1e-315, a
        # subnormal, not 0
        rep = check_mean_chain_pairs(35.0, seed=0)
        assert rep.verdict == "pass"
        assert set(rep.clause_margins) == {"geometric", "geo_argument"}
        assert all(m < 0.0 for m in rep.clause_margins.values())

    def test_determinism(self):
        a = check_mean_chain_pairs(0.5, seed=5, cfg=FAST)
        b = check_mean_chain_pairs(0.5, seed=5, cfg=FAST)
        assert a == b


def _clauses_at(p):
    return tuple(check_mean_chain(p, 0.3, 0.4).clause_margins)


class TestKEnvelope:
    def test_quarter_full_interval(self):
        rep = check_k_envelope(0.25, FAST)
        assert rep.verdict == "pass"
        assert rep.x_p is None

    def test_small_p_uses_turning_point(self):
        rep = check_k_envelope(0.1, FAST)
        assert rep.verdict == "pass"
        assert rep.x_p == pytest.approx(0.9992631006990728, abs=1e-8)

    def test_limits_coincide_at_zero(self):
        # both envelope bounds approach K(0) = pi/2
        for p in (0.25, 0.7):
            lo = (PI / 2) * (1 - 1e-9) ** p
            hi = (PI / 2) / (1 - 1e-9) ** p
            assert lo == pytest.approx(PI / 2, rel=1e-8)
            assert hi == pytest.approx(PI / 2, rel=1e-8)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(DomainError):
            check_k_envelope(0.0, FAST)

    def test_nan_p_is_domain_error(self):
        with pytest.raises(DomainError, match="needs p > 0"):
            check_k_envelope(math.nan, FAST)

    def test_no_double_holds_x_p_is_inconclusive(self):
        # x_p lies below the first ladder point 1e-9: a valid p whose grid
        # cannot be built, with find_x_p's error and message
        p = 0.24999999999
        with pytest.raises(InconclusiveScanError) as found:
            find_x_p(p)
        with pytest.raises(InconclusiveScanError) as raised:
            check_k_envelope(p, FAST)
        assert str(raised.value) == str(found.value)

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.02, 0.025])
    def test_x_p_above_every_double_passes(self, p):
        # L(p, .) > 0 at the largest double below 1: x_p is reported as
        # 1.0, its rounded value, and the grid is scanned as given
        assert family.l_factor(p, math.nextafter(1.0, 0.0)) > 0.0
        cols = GridColumns(FAST)
        rep = check_k_envelope(p, cols)
        assert (rep.verdict, rep.x_p, rep.grid_n) == ("pass", 1.0, len(cols.xs))
        assert max(rep.clause_margins.values()) < 0.0

    def test_closed_form_cap_against_50_digit_maximum(self):
        # 16^p/(2pe) lies at most rounding above the maximum of h(0.02, .),
        # and below it by at most (1 - x*)/4 relative plus 4 ulp
        top, one_minus_x = oracles.mp_h_max(0.02)
        x_p, cap = inequalities._turning_cap(0.02)
        assert x_p == 1.0 and cap == 9.721380151746338
        assert cap <= top
        assert top - cap <= top * one_minus_x / 4.0 + 4.0 * math.ulp(top)

    def test_scan_ends_at_hi_below_x_p(self):
        # hi = 0.5 < x_p(0.1): the check scans the grid it was given, up to
        # 0.5 - offset, and takes K from that grid's shared column
        cfg = ScanConfig(hi=0.5, n=201)
        cols = GridColumns(cfg)
        rep = check_k_envelope(0.1, cols)
        assert "k" in vars(cols) and cols.xs[-1] == cfg.ends[1]
        assert rep.grid_n == len(cols.xs) == len(inequality_grid(cfg))
        x_p = find_x_p(0.1)
        cap = (1.0 - x_p) ** 0.1 * ellip_k(x_p)
        assert rep.x_p == x_p
        assert rep.clause_margins == {
            "lower": max((PI / 2) / (1.0 - r) ** 0.1 - ellip_k(r) for r in cols.xs),
            "upper": max(ellip_k(r) - cap / (1.0 - r) ** 0.1 for r in cols.xs)}

    def test_underflowed_power_is_domain_error(self):
        # (1 - r)^2000 is 0.0 near r = 1, where the upper bound divides by it
        with pytest.raises(DomainError, match="underflows"):
            check_k_envelope(2000.0, FAST)

    def test_small_p_takes_its_grid_from_columns(self):
        assert check_k_envelope(0.1, GridColumns(FAST)) == check_k_envelope(0.1, FAST)


def _ulp_below(v):
    return math.nextafter(v, -math.inf)


def _ulp_above(v):
    return math.nextafter(v, math.inf)


_GATE_GRID = ScanConfig(n=200)
_GATE_CHECKS = {
    "weighted-sum": lambda p: check_weighted_sum(p, _GATE_GRID),
    "product-pair": lambda p: check_product_pair(p, _GATE_GRID),
    "mean-chain": lambda p: check_mean_chain(p, 0.3, 0.4),
    "k-envelope": lambda p: check_k_envelope(p, _GATE_GRID),
}
_ALL_CHAIN = ("geometric", "midpoint", "geo_argument")
# (check, p, outcome): p is a claimed region end or one ulp outside it;
# the outcome is (verdict, clauses, x_p) of the report, or the name of
# the error the check raises
_GATE_CASES = [
    ("weighted-sum", family.P_CONCAVE_LO, ("pass", ("lower", "upper"), None)),
    ("weighted-sum", 1.0, ("pass", ("lower", "upper"), None)),
    ("weighted-sum", family.P_CONVEX_HI, ("pass", ("lower", "upper"), None)),
    ("weighted-sum", _ulp_below(family.P_CONCAVE_LO), "DomainError"),
    ("weighted-sum", _ulp_above(1.0), "DomainError"),
    ("weighted-sum", _ulp_below(family.P_CONVEX_HI), "DomainError"),
    ("product-pair", 7 / 32, ("pass", ("sum_lower", "geo_upper"), None)),
    ("product-pair", _ulp_below(7 / 32), ("pass", ("sum_lower",), None)),
    ("mean-chain", 7 / 32, ("pass", ("geometric",), None)),
    ("mean-chain", _ulp_below(7 / 32), "DomainError"),
    ("mean-chain", 0.25, ("pass", _ALL_CHAIN, None)),
    ("mean-chain", _ulp_below(0.25), ("pass", ("geometric", "midpoint"), None)),
    ("mean-chain", 1.0, ("pass", _ALL_CHAIN, None)),
    ("mean-chain", _ulp_above(1.0), ("pass", ("geometric", "geo_argument"), None)),
    ("k-envelope", 0.25, ("pass", ("lower", "upper"), None)),
    # x_p lies below the first ladder point: the p < 1/4 form has no grid
    ("k-envelope", _ulp_below(0.25), "InconclusiveScanError"),
]


class TestClaimGates:
    """Each check's clause gate holds at the end of the claimed region it
    rests on and shuts one ulp outside it."""

    @pytest.mark.parametrize("check, p, outcome", _GATE_CASES,
                             ids=[f"{c} {p!r}" for c, p, _ in _GATE_CASES])
    def test_gate_to_the_ulp(self, check, p, outcome):
        try:
            rep = _GATE_CHECKS[check](p)
        except (DomainError, InconclusiveScanError) as exc:
            assert type(exc).__name__ == outcome
            return
        assert (rep.verdict, tuple(rep.clause_margins), rep.x_p) == outcome


class TestGammaConstants:
    def test_pass(self):
        rep = check_gamma_constant_identities()
        assert rep.verdict == "pass"
        assert "chain_alpha_le_outer" in rep.clause_margins

    def test_failed_identity_reported_at_half(self, monkeypatch):
        # a Gamma(1/4) off by 1e-9 relative breaks K(1/2)^2 = Gamma(1/4)^4/(16 pi),
        # the reflection and the chain; the identities come first and do
        # not depend on r, so the witness is the first of them, at r = 1/2
        monkeypatch.setattr(inequalities, "GAMMA_QUARTER", specfun.GAMMA_QUARTER * (1 + 1e-9))
        rep = check_gamma_constant_identities()
        assert rep.verdict == "fail"
        assert (rep.witness_x, rep.witness_clause) == (0.5, "k_half_squared")
        assert rep.witness_value == rep.clause_margins["k_half_squared"] > VIOLATION_TOL
        # the first chain clause does not involve Gamma(1/4): still tight at 1/2
        assert rep.equality_points == [0.5]

    def test_chain_outside_claimed_range_exploratory(self, capsys):
        # the chain is asserted on p in [1/4, 1] only; outside that range
        # the margins are recorded as exploratory data, not asserted
        from ellipcert.specfun import GAMMA_QUARTER
        for p in (0.1, 1.2):
            alpha = GAMMA_QUARTER ** 4 / (2.0 ** (2.0 + 2.0 * p) * PI)
            worst = max(
                ((1 - r) ** p * ellip_k(r) + r ** p * ellip_k(1 - r)) ** 2 - alpha
                for r in [i / 500 for i in range(1, 500)])
            print(f"exploratory chain margin p={p}: {worst:.3e} "
                  f"({'holds' if worst <= 1e-12 else 'violated'})")

    def test_reflection_identity(self):
        from ellipcert.specfun import GAMMA_QUARTER, GAMMA_THREE_QUARTER
        assert GAMMA_QUARTER * GAMMA_THREE_QUARTER == pytest.approx(
            PI * math.sqrt(2.0), abs=1e-13)

    def test_k_half_both_routes(self):
        from ellipcert.specfun import GAMMA_QUARTER, GAMMA_THREE_QUARTER
        k = ellip_k(0.5)
        assert k == pytest.approx(PI * math.sqrt(PI) / (2 * GAMMA_THREE_QUARTER ** 2),
                                  rel=1e-12)
        assert k * k == pytest.approx(GAMMA_QUARTER ** 4 / (16 * PI), rel=1e-12)

    def test_identities_held_to_violation_tol(self, monkeypatch):
        # K(1/2) 1.5e-12 relative above its Gamma closed form: the residual
        # itself is the margin, held to VIOLATION_TOL like every clause
        from ellipcert.specfun import GAMMA_THREE_QUARTER
        closed = PI * math.sqrt(PI) / (2.0 * GAMMA_THREE_QUARTER ** 2)
        real = inequalities.ellip_k
        monkeypatch.setattr(inequalities, "ellip_k",
                            lambda x: closed * (1.0 + 1.5e-12) if x == 0.5 else real(x))
        rep = check_gamma_constant_identities()
        assert rep.clause_margins["k_half_closed_form"] > VIOLATION_TOL
        assert (rep.verdict, rep.witness_x, rep.witness_clause) == (
            "fail", 0.5, "k_half_closed_form")


class TestGridAndReports:
    def test_grid_contains_midpoint_and_tails(self):
        xs = inequality_grid(FAST)
        assert 0.5 in xs
        assert xs[0] == FAST.endpoint_offset
        assert xs[-1] == 1.0 - FAST.endpoint_offset
        assert all(b > a for a, b in zip(xs, xs[1:]))
        # geometric tail points below the first uniform step
        step = (xs[-1] - xs[0]) / (FAST.n - 1)
        assert sum(1 for x in xs if x < step) >= 15

    def test_equality_points_cluster_across_scanned_neighbours(self):
        # hits at neighbouring scanned points are one equality point, the
        # tightest of them, however far apart the points lie
        xs, columns = [0.2, 0.5, 0.8], {"a": [0.0, 0.0, 1e-10]}
        assert inequalities._report("c", None, xs, columns, ("a",)).equality_points == [0.2]

    def test_hits_apart_in_scan_order_are_two_points(self):
        # hits at scanned indices 0 and 2, 1e-7 apart: index 1 is no hit,
        # so they are two equality points however close they lie
        xs, columns = [0.3, 0.3 + 5e-8, 0.3 + 1e-7], {"a": [0.0, -1e-3, 0.0]}
        assert inequalities._report("c", None, xs, columns, ("a",)).equality_points == [
            0.3, 0.3 + 1e-7]

    def test_pair_points_of_the_default_grid(self):
        # every point up to 1/2, and the last, 1 - 1e-9, whose mirror
        # rounds below the first point 1e-9
        cols = GridColumns(DEFAULT_SCAN)
        half = sum(1 for x in cols.xs if x <= 0.5)
        assert cols.runs == (half, len(cols.xs) - 1)
        assert cols.pair_xs == cols.xs[:half] + cols.xs[-1:]
        assert 1.0 - cols.xs[-1] < cols.xs[0]

    def test_fail_iff_witness(self):
        good = check_sum_bounds(1.47, FAST)
        bad = check_sum_bounds(1.3, FAST)
        assert good.verdict == "pass" and good.witness_x is None
        assert bad.verdict == "fail" and bad.witness_x is not None


def _k_mirror(r):
    """K(1 - r) at the exact mirror point, from the column kernel alone."""
    return specfun.ellip_k_column([r], mirror=True)[1][0]


def _per_clause_margins(name, q):
    """Clause margins at r as functions of r alone, with one family.f,
    family.h, ellip_k or _k_mirror evaluation per use, as the checks
    computed them before K was shared between clauses and checks, and
    the clauses the check reports equality points of.  The mirror terms
    are f and h at the exact 1 - r: K(1 - r) / (a - log(r)/2) and
    r^p K(1 - r)."""
    k_half = ellip_k(0.5)
    if name == "sum-bounds":
        lower = 4.0 * k_half / (2.0 * q + math.log(2.0))
        upper = 1.0 + PI / (2.0 * q)
        total = lambda r: family.f(q, r) + _k_mirror(r) / (q - 0.5 * math.log(r))
        return ({"lower": lambda r: lower - total(r), "upper": lambda r: total(r) - upper},
                ("lower",))
    if name == "weighted-sum":
        mid = k_half / 2.0 ** (q - 1.0)
        total = lambda r: family.h(q, r) + r ** q * _k_mirror(r)
        if q >= family.P_CONVEX_HI:
            return ({"lower": lambda r: mid - total(r), "upper": lambda r: total(r) - PI / 2},
                    ("lower",))
        return ({"lower": lambda r: PI / 2 - total(r), "upper": lambda r: total(r) - mid},
                ("upper",))
    if name == "product-pair":
        out = {"sum_lower": lambda r: (
            2.0 ** (1.0 + q) * k_half * (r - r * r) ** q
            - (r ** q * ellip_k(r) + (1.0 - r) ** q * _k_mirror(r)))}
        if q >= family.P_LOGCONCAVE:
            out["geo_upper"] = lambda r: (
                math.sqrt((r - r * r) ** q * ellip_k(r) * _k_mirror(r)) - k_half / 2.0 ** q)
        return out, tuple(out)
    assert name == "k-envelope" and q >= family.P_MONOTONE
    return ({"lower": lambda r: (PI / 2) * (1.0 - r) ** q - ellip_k(r),
             "upper": lambda r: ellip_k(r) - (PI / 2) / (1.0 - r) ** q}, ())


SHARED_GRID_CHECKS = [
    (check_sum_bounds, 1.47), (check_sum_bounds, 1.3),
    (check_weighted_sum, family.P_CONVEX_HI), (check_weighted_sum, 0.5),
    (check_product_pair, 0.1), (check_product_pair, 0.5),
    (check_k_envelope, 0.25), (check_k_envelope, 0.7),
]

# The grids the reports are checked on against every point of their
# inequality_grid: FAST, the default, one with lo + hi != 1 (the pairing
# checks keep the points above 1/2 whose mirror lies below 0.3), the
# smallest (its tails and the midpoint), one that ends at 0.3 and 0.7,
# whose mirror 0.30000000000000004 is not a grid point, and one that
# starts just below 1/2, where the equality band around 1/2 spans points
# on both sides of the points the pairing checks skip: one equality
# point, 1/2, as on the full grid.
FULL_GRIDS = {"fast": FAST, "default": DEFAULT_SCAN,
              "asymmetric": ScanConfig(lo=0.3, hi=0.9, n=2000),
              "two-point": ScanConfig(n=2), "offset-0.3": ScanConfig(n=500, endpoint_offset=0.3),
              "near-half": ScanConfig(lo=0.49999, hi=0.6, n=2000)}
FULL_GRID_CASES = [(g, check, q) for g in FULL_GRIDS for check, q in SHARED_GRID_CHECKS]

# A pairing check's clause maximum over the points that hold a new pair
# is at most this many ulp(1) = 2^-52 from the maximum over every grid
# point.  Measured: 4 on the offset-0.3 grid (sum-bounds upper at
# a = 1.47, where the margins are differences of terms near 2, whose ulp
# is 2^-51; weighted-sum upper there: 1), 0 on the other grids, the
# near-half grid included.
PAIR_MAX_ULPS = 4


def _count_kernel(monkeypatch):
    """Count ellip_k calls made through every module that reaches it, as
    calls["k"], and the length of each pass of the checks' K column, as
    calls["column"] for K alone and calls["columns"] with the mirror."""
    calls = {"k": 0, "column": [], "columns": []}
    real_k, real_column = specfun.ellip_k, specfun.ellip_k_column

    def counted(x):
        calls["k"] += 1
        return real_k(x)

    def counted_column(xs, mirror=False):
        calls["columns" if mirror else "column"].append(len(xs))
        return real_column(xs, mirror)

    for module in (inequalities, family, specfun):
        monkeypatch.setattr(module, "ellip_k", counted)
    monkeypatch.setattr(inequalities, "ellip_k_column", counted_column)
    return calls


def _assert_full_grid_report(rep, xs, clauses, tight, max_ulps):
    """rep against the clauses evaluated at every point of xs: the same
    verdict, witness and equality points, and each clause maximum within
    max_ulps ulp(1) of the maximum over xs."""
    columns = {cl: [fn(r) for r in xs] for cl, fn in clauses.items()}
    full = {cl: max(col) for cl, col in columns.items()}
    assert rep.clause_margins.keys() == full.keys()
    for cl, m in full.items():
        assert abs(rep.clause_margins[cl] - m) <= max_ulps * math.ulp(1.0), cl
    first = next(((r, columns[cl][i], cl) for i, r in enumerate(xs) for cl in columns
                  if columns[cl][i] > VIOLATION_TOL), (None, None, None))
    assert (rep.witness_x, rep.witness_value, rep.witness_clause) == first
    assert rep.verdict == ("pass" if first[0] is None else "fail")
    hits = [(i, r, m) for cl in tight for i, (r, m) in enumerate(zip(xs, columns[cl]))
            if abs(m) <= EQUALITY_TOL]
    assert rep.equality_points == inequalities._cluster(hits)


class TestSharedColumns:
    def test_same_report_as_own_columns(self):
        cols = GridColumns(FAST)
        for check, q in SHARED_GRID_CHECKS:
            assert check(q, cols) == check(q, FAST), (check.__name__, q)

    @pytest.mark.parametrize(
        "grid, check, q", FULL_GRID_CASES,
        ids=[f"{c.__name__}-{q:.4g}" if g == "fast" else f"{g}-{c.__name__}-{q:.4g}"
             for g, c, q in FULL_GRID_CASES])
    def test_bit_identical_to_per_clause_evaluation(self, grid, check, q):
        # the pairing checks scan only the points that hold a new pair
        # {r, 1 - r}; evaluated at every grid point, each clause gives the
        # same verdict, witness and equality points, and its maximum
        # within PAIR_MAX_ULPS (bit-identical for the K-only k-envelope)
        cfg = FULL_GRIDS[grid]
        rep = check(q, cfg)
        clauses, tight = _per_clause_margins(rep.name, q)
        xs = inequality_grid(cfg)
        _assert_full_grid_report(rep, xs, clauses, tight,
                                 0 if rep.name == "k-envelope" else PAIR_MAX_ULPS)
        assert rep.grid_n == len(xs if rep.name == "k-envelope" else GridColumns(cfg).pair_xs)

    def test_gamma_chain_against_every_grid_point(self):
        # the chain clauses scan 1/2 and the points of _GAMMA_GRID that
        # hold a new pair; at 1/2 and every grid point they give the same
        # verdict, witness and equality points, and the same maxima to the
        # bit (measured: 0 ulp, equality points [0.5])
        rep = check_gamma_constant_identities()
        p = 0.25
        alpha = specfun.GAMMA_QUARTER ** 4 / (2.0 ** (2.0 + 2.0 * p) * PI)
        s = lambda r: (1.0 - r) ** p * ellip_k(r) + r ** p * _k_mirror(r)
        g = lambda r: math.sqrt(r - r * r)
        chain = {
            "chain_product_le_sum_sq": lambda r: (
                4.0 * ellip_k(r) * _k_mirror(r) * (r - r * r) ** p - s(r) ** 2),
            "chain_sum_sq_le_alpha": lambda r: s(r) ** 2 - alpha,
            "chain_alpha_le_outer": lambda r: (
                alpha - 4.0 * (1.0 - g(r)) ** (2.0 * p) * ellip_k(g(r)) ** 2),
        }
        # the identity columns are constant: their values as reported
        clauses = {cl: (lambda r, m=m: m) for cl, m in rep.clause_margins.items()
                   if cl not in chain} | chain
        xs = [0.5, *inequalities._GAMMA_GRID.grid()]
        _assert_full_grid_report(rep, xs, clauses, tuple(chain), 0)
        assert rep.equality_points == [0.5]

    def test_one_kernel_call_per_point_and_argument(self, monkeypatch):
        calls = _count_kernel(monkeypatch)
        cols = GridColumns(FAST)
        n, n_pair = len(cols.xs), len(cols.pair_xs)
        assert n_pair == 1022  # 1021 points up to 1/2 and the last, 1 - 1e-9
        check_sum_bounds(1.47, cols)
        check_weighted_sum(0.5, cols)
        check_product_pair(0.5, cols)
        # one column pass gives K(x) and K(1 - x) at the pair points;
        # K(1/2) once per check
        assert calls == {"k": 3, "column": [], "columns": [n_pair]}
        check_k_envelope(0.5, cols)
        # K(x) from that same pass where it ran, one K column over the
        # other points
        assert calls == {"k": 3, "column": [n - n_pair], "columns": [n_pair]}
        # a command that never pairs r with 1 - r never computes K(1 - x)
        check_k_envelope(0.5, GridColumns(FAST))
        assert calls == {"k": 3, "column": [n - n_pair, n], "columns": [n_pair]}

    def test_verify_all_kernel_budget(self, monkeypatch, capsys):
        cols = GridColumns(DEFAULT_SCAN)
        n, n_pair = len(cols.xs), len(cols.pair_xs)
        n_xp = len(inequality_grid(DEFAULT_SCAN._replace(hi=find_x_p(0.1))))
        assert (n, n_pair) == (10041, 5022)
        calls = _count_kernel(monkeypatch)
        assert cli.main(["verify", "all"]) == 0
        # one column pass for K(x) and K(1 - x) at the shared grid's pair
        # points and one for K(r) and K(1 - r) at the 501 pair points of
        # the gamma grid (1/2 and the 500 points below it); one K column
        # each for h at x, y, (x+y)/2 and sqrt(xy) of the 1000 mean-chain
        # pairs, for the shared grid's other points (k-envelope at 1/4),
        # for the grid up to x_p(0.1) and for K(sqrt(r - r^2)) at the gamma
        # pair points; and ellip_k for K(1/2) or K(x_p) once per check
        assert calls == {"k": 6, "column": [1000] * 4 + [n - n_pair, n_xp, 501],
                         "columns": [n_pair, 501]}


# The pairing checks against mp_pair_margins: each clause at each scanned
# point at 50 digits.  A reported maximum is at most this many ulp(1)
# from the 50-digit maximum over the same points, and a witness value
# from the 50-digit margin there.  Measured: 2.93 (sum-bounds lower at
# a = 1.3 on the near-half grid, where the margins are differences of
# terms near 2), at most 2.34 elsewhere.
ORACLE_MAX_ULPS = 3
ORACLE_GRIDS = {"n500": ScanConfig(n=500), "near-half": FULL_GRIDS["near-half"]}
ORACLE_CHECKS = [(check_sum_bounds, 1.47), (check_sum_bounds, 1.3),
                 (check_weighted_sum, family.P_CONVEX_HI), (check_weighted_sum, 0.5),
                 (check_product_pair, 0.5)]
ORACLE_CASES = [(g, check, q) for g in ORACLE_GRIDS for check, q in ORACLE_CHECKS]


# check_k_envelope against mp_k_envelope_margins on a 500-point grid, at
# p above and at 1/4, on the grid that ends at x_p (0.1) and where x_p
# lies above every double below 1 (0.02).  Measured: 10.0 ulp(1) (the
# upper clause at 0.02, whose maximum lies at r = 1 - 1e-9, where K(r)
# and cap / (1 - r)^p are near 12 and 15), at most 1.13 elsewhere.
K_ENVELOPE_MAX_ULPS = 10
K_ENVELOPE_ORACLE_PS = [0.5, 0.25, 0.1, 0.02]
# p where x_p lies a few ulps below 1 (0.0254) to where it lies far from it
TURNING_CAP_ORACLE_PS = [0.0254, 0.026, 0.03, 0.032, 0.035, 0.04, 0.05, 0.1]


class TestFiftyDigitOracle:
    @pytest.mark.parametrize("grid, check, q", ORACLE_CASES,
                             ids=[f"{g}-{c.__name__}-{q:.4g}" for g, c, q in ORACLE_CASES])
    def test_pairing_report_against_50_digits(self, grid, check, q):
        cfg = ORACLE_GRIDS[grid]
        rep = check(q, cfg)
        xs = GridColumns(cfg).pair_xs
        columns, tight = oracles.mp_pair_margins(rep.name, q, xs)
        ref = oracles.inequality_scan_reference(
            rep.name, q, xs, list(columns), lambda i, x: [columns[cl][i] for cl in columns], tight)
        assert ((rep.verdict, rep.witness_x, rep.witness_clause, rep.equality_points)
                == (ref.verdict, ref.witness_x, ref.witness_clause, ref.equality_points))
        assert rep.equality_points == [0.5]
        tol = ORACLE_MAX_ULPS * math.ulp(1.0)
        assert rep.clause_margins.keys() == ref.clause_margins.keys()
        for cl, m in ref.clause_margins.items():
            assert abs(rep.clause_margins[cl] - m) <= tol, cl
        if ref.witness_value is not None:
            assert abs(rep.witness_value - ref.witness_value) <= tol

    @pytest.mark.parametrize("p", K_ENVELOPE_ORACLE_PS)
    def test_k_envelope_against_50_digits(self, p):
        cfg = ScanConfig(n=500)
        rep = check_k_envelope(p, cfg)
        xs, columns, x_p = oracles.mp_k_envelope_margins(p, cfg)
        ref = oracles.inequality_scan_reference(
            rep.name, p, xs, list(columns), lambda i, x: [columns[cl][i] for cl in columns],
            x_p=x_p)
        assert ((rep.verdict, rep.witness_x, rep.witness_clause, rep.x_p, rep.grid_n)
                == (ref.verdict, ref.witness_x, ref.witness_clause, ref.x_p, ref.grid_n))
        tol = K_ENVELOPE_MAX_ULPS * math.ulp(1.0)
        assert rep.clause_margins.keys() == ref.clause_margins.keys()
        for cl, m in ref.clause_margins.items():
            assert abs(rep.clause_margins[cl] - m) <= tol, cl


    @pytest.mark.parametrize("p", TURNING_CAP_ORACLE_PS)
    def test_turning_cap_against_50_digits(self, p):
        # the cap is the larger of h(p, x_p) and 16^p/(2pe), both below the
        # maximum of h(p, .): it lies at most 1 ulp above the 50-digit
        # maximum, and below it by at most 2e-13 relative (1.0e-13 at 0.032)
        top = oracles.mp_h_max(p)[0]
        cap = inequalities._turning_cap(p)[1]
        assert cap <= top + math.ulp(top)
        assert (top - cap) / top <= 2e-13


def _nan_at_nth_k(monkeypatch, nth):
    """Make the nth value of K that the checks read NaN, counting the
    calls of ellip_k and the points of each K-only column in order;
    calls[0] counts the values read."""
    real_k, real_column, calls = inequalities.ellip_k, inequalities.ellip_k_column, [0]

    def k(x):
        calls[0] += 1
        return math.nan if calls[0] == nth else real_k(x)

    def column(xs, mirror=False):
        if mirror:
            return real_column(xs, mirror)
        ks = real_column(xs)
        start, calls[0] = calls[0], calls[0] + len(ks)
        if start < nth <= calls[0]:
            ks[nth - start - 1] = math.nan
        return ks

    monkeypatch.setattr(inequalities, "ellip_k", k)
    monkeypatch.setattr(inequalities, "ellip_k_column", column)
    return calls


class TestNonFiniteMargins:
    def test_nan_margins_are_inconclusive(self):
        # every margin is NaN, and NaN never raises a maximum
        with pytest.raises(InconclusiveScanError):
            check_product_pair(math.nan, FAST)

    def test_infinite_bound_is_inconclusive(self):
        # 1 + pi/(2a) overflows to inf
        with pytest.raises(InconclusiveScanError):
            check_sum_bounds(1e-320, FAST)

    # the 1,000 pairs read hx, hy, hm and hg in that order, 1,000 values each
    @pytest.mark.parametrize("nth", [2, 1007, 3000, 3500])
    def test_one_nan_in_mean_chain(self, monkeypatch, nth):
        calls = _nan_at_nth_k(monkeypatch, nth)
        with pytest.raises(InconclusiveScanError):
            check_mean_chain_pairs(0.5, cfg=FAST)
        calls[0] = nth - 2
        with pytest.raises(InconclusiveScanError):
            check_mean_chain(0.5, 0.3, 0.4)

    @pytest.mark.parametrize("nth", [1, 500])
    def test_one_nan_in_gamma_check(self, monkeypatch, nth):
        _nan_at_nth_k(monkeypatch, nth)
        with pytest.raises(InconclusiveScanError):
            check_gamma_constant_identities()

    @pytest.mark.parametrize("column, nth", [(0, 0), (0, 500), (1, 0), (1, 500)])
    def test_one_nan_in_gamma_columns(self, monkeypatch, column, nth):
        real = inequalities.ellip_k_column

        def columns(xs, mirror=False):
            out = real(xs, mirror)
            if mirror:
                out[column][nth] = math.nan
            return out

        monkeypatch.setattr(inequalities, "ellip_k_column", columns)
        with pytest.raises(InconclusiveScanError):
            check_gamma_constant_identities()
