"""Inequality-grid tests: bounds, midpoint sharpness, negative controls."""

import math

import pytest

from ellipcert import cli, family, inequalities, specfun
from ellipcert.certify import (
    DEFAULT_SCAN,
    BracketNotFoundError,
    InconclusiveScanError,
    ScanConfig,
    certify_monotone,
    find_x_p,
)
from ellipcert.inequalities import (
    VIOLATION_TOL,
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
        left = certify_monotone(total, "decreasing",
                                ScanConfig(lo=0.0, hi=0.5, n=1500))
        right = certify_monotone(total, "increasing",
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


class TestMeanChain:
    def test_diagonal_is_equality(self):
        rep = check_mean_chain(0.5, 0.3, 0.3)
        assert rep.verdict == "pass"
        assert all(m == 0.0 for m in rep.clause_margins.values())
        assert rep.equality_points == [0.3]

    def test_pairs_at_half(self):
        rep = check_mean_chain_pairs(0.5, n_pairs=1000, seed=0, cfg=FAST)
        assert rep.verdict == "pass"
        assert set(rep.clause_margins) == {"geometric", "midpoint", "geo_argument"}
        assert _margins_ok(rep)

    def test_geometric_clause_at_p03(self):
        rep = check_mean_chain_pairs(0.3, n_pairs=500, seed=1, cfg=FAST)
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

    def test_no_pairs_is_inconclusive(self):
        with pytest.raises(InconclusiveScanError):
            check_mean_chain_pairs(0.5, n_pairs=0, cfg=FAST)

    def test_determinism(self):
        a = check_mean_chain_pairs(0.5, n_pairs=200, seed=5, cfg=FAST)
        b = check_mean_chain_pairs(0.5, n_pairs=200, seed=5, cfg=FAST)
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

    @pytest.mark.parametrize("p", [0.02, 0.24999999999])
    def test_no_double_holds_x_p_is_inconclusive(self, p):
        # x_p lies above the largest double below 1 (0.02) or below the
        # first ladder point 1e-9: a valid p whose grid cannot be built
        with pytest.raises(BracketNotFoundError) as found:
            find_x_p(p)
        with pytest.raises(InconclusiveScanError) as raised:
            check_k_envelope(p, FAST)
        assert str(raised.value) == str(found.value)

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

    def test_fail_iff_witness(self):
        good = check_sum_bounds(1.47, FAST)
        bad = check_sum_bounds(1.3, FAST)
        assert good.verdict == "pass" and good.witness_x is None
        assert bad.verdict == "fail" and bad.witness_x is not None


def _per_clause_margins(name, q):
    """Clause margins at r as functions of r alone, with one family.f,
    family.h or ellip_k evaluation per use, as the checks computed them
    before K was shared between clauses and checks."""
    k_half = ellip_k(0.5)
    if name == "sum-bounds":
        lower = 4.0 * k_half / (2.0 * q + math.log(2.0))
        upper = 1.0 + PI / (2.0 * q)
        total = lambda r: family.f(q, r) + family.f(q, 1.0 - r)
        return {"lower": lambda r: lower - total(r), "upper": lambda r: total(r) - upper}
    if name == "weighted-sum":
        mid = k_half / 2.0 ** (q - 1.0)
        total = lambda r: family.h(q, r) + family.h(q, 1.0 - r)
        if q >= family.P_CONVEX_HI:
            return {"lower": lambda r: mid - total(r), "upper": lambda r: total(r) - PI / 2}
        return {"lower": lambda r: PI / 2 - total(r), "upper": lambda r: total(r) - mid}
    if name == "product-pair":
        out = {"sum_lower": lambda r: (
            2.0 ** (1.0 + q) * k_half * (r - r * r) ** q
            - (r ** q * ellip_k(r) + (1.0 - r) ** q * ellip_k(1.0 - r)))}
        if q >= family.P_LOGCONCAVE:
            out["geo_upper"] = lambda r: (
                math.sqrt((r - r * r) ** q * ellip_k(r) * ellip_k(1.0 - r)) - k_half / 2.0 ** q)
        return out
    assert name == "k-envelope" and q >= family.P_MONOTONE
    return {"lower": lambda r: (PI / 2) * (1.0 - r) ** q - ellip_k(r),
            "upper": lambda r: ellip_k(r) - (PI / 2) / (1.0 - r) ** q}


SHARED_GRID_CHECKS = [
    (check_sum_bounds, 1.47), (check_sum_bounds, 1.3),
    (check_weighted_sum, family.P_CONVEX_HI), (check_weighted_sum, 0.5),
    (check_product_pair, 0.1), (check_product_pair, 0.5),
    (check_k_envelope, 0.25), (check_k_envelope, 0.7),
]


def _count_kernel(monkeypatch):
    """Count ellip_k calls made through every module that reaches it."""
    calls = [0]
    real = specfun.ellip_k

    def counted(x):
        calls[0] += 1
        return real(x)

    for module in (inequalities, family, specfun):
        monkeypatch.setattr(module, "ellip_k", counted)
    return calls


class TestSharedColumns:
    def test_same_report_as_own_columns(self):
        cols = GridColumns(FAST)
        for check, q in SHARED_GRID_CHECKS:
            assert check(q, cols) == check(q, FAST), (check.__name__, q)

    @pytest.mark.parametrize("check, q", SHARED_GRID_CHECKS,
                             ids=[f"{c.__name__}-{q:.4g}" for c, q in SHARED_GRID_CHECKS])
    def test_bit_identical_to_per_clause_evaluation(self, check, q):
        rep = check(q, FAST)
        clauses = _per_clause_margins(rep.name, q)
        xs = inequality_grid(FAST)
        assert rep.clause_margins == {cl: max(map(fn, xs)) for cl, fn in clauses.items()}
        first = next(((r, fn(r), cl) for r in xs for cl, fn in clauses.items()
                      if fn(r) > VIOLATION_TOL), (None, None, None))
        assert (rep.witness_x, rep.witness_value, rep.witness_clause) == first

    def test_one_kernel_call_per_point_and_argument(self, monkeypatch):
        calls = _count_kernel(monkeypatch)
        cols = GridColumns(FAST)
        check_k_envelope(0.5, cols)
        n = len(cols.xs)
        assert calls[0] == n  # K(x) only: this check never pairs r with 1 - r
        check_sum_bounds(1.47, cols)
        check_weighted_sum(0.5, cols)
        check_product_pair(0.5, cols)
        assert calls[0] == 2 * n + 3  # K(1 - x) once, K(1/2) once per check

    def test_verify_all_kernel_budget(self, monkeypatch, capsys):
        n = len(inequality_grid(DEFAULT_SCAN))
        n_xp = len(inequality_grid(DEFAULT_SCAN._replace(hi=find_x_p(0.1))))
        calls = _count_kernel(monkeypatch)
        assert cli.main(["verify", "all"]) == 0
        # K(x) and K(1 - x) on the shared grid, K(x) on the grid up to
        # x_p(0.1), h at x, y, (x+y)/2 and sqrt(xy) for the 1000 mean-chain
        # pairs, K(r), K(1 - r) and K(sqrt(r - r^2)) on the 1001-point gamma
        # grid, and K(1/2) or K(x_p) once per check
        assert calls[0] == 2 * n + n_xp + 4 * 1000 + 3 * 1001 + 6


class TestNonFiniteMargins:
    def test_nan_margins_are_inconclusive(self):
        # every margin is NaN, and NaN never raises a maximum
        with pytest.raises(InconclusiveScanError):
            check_product_pair(math.nan, FAST)

    def test_infinite_bound_is_inconclusive(self):
        # 1 + pi/(2a) overflows to inf
        with pytest.raises(InconclusiveScanError):
            check_sum_bounds(1e-320, FAST)

    @pytest.mark.parametrize("nth", [2, 7, 30])
    def test_one_nan_in_mean_chain(self, monkeypatch, nth):
        real, calls = family.h, [0]

        def h(p, x):
            calls[0] += 1
            return math.nan if calls[0] == nth else real(p, x)

        monkeypatch.setattr(family, "h", h)
        with pytest.raises(InconclusiveScanError):
            check_mean_chain_pairs(0.5, n_pairs=10, cfg=FAST)
        calls[0] = nth - 2
        with pytest.raises(InconclusiveScanError):
            check_mean_chain(0.5, 0.3, 0.4)

    @pytest.mark.parametrize("nth", [1, 500])
    def test_one_nan_in_gamma_check(self, monkeypatch, nth):
        real, calls = inequalities.ellip_k, [0]

        def k(x):
            calls[0] += 1
            return math.nan if calls[0] == nth else real(x)

        monkeypatch.setattr(inequalities, "ellip_k", k)
        with pytest.raises(InconclusiveScanError):
            check_gamma_constant_identities()
