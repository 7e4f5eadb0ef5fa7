"""Kernel tests: elliptic integrals, hypergeometric series, derivatives.

Expected values marked as oracle-pinned were produced by the quadrature
or brute-series oracles in oracles.py and frozen; the tests re-derive
them at run time so a drifting oracle or kernel is caught either way.
"""

import contextlib
import io
import math
import random
import time

import pytest

import oracles
from oracles import ellip_kept
from ellipcert import cli, specfun
from ellipcert.certify import ScanConfig
from ellipcert.specfun import (
    ConvergenceError,
    DomainError,
    ellip_e,
    ellip_k,
    hyp2f1,
    legendre_residual,
)

PI = math.pi

# Oracle-pinned values (adaptive quadrature of the defining integrals).
QUAD_K_09 = 2.578092113348173
QUAD_E_03 = 1.4453630644126653
QUAD_K_09_SERIES_SCALED = 1.6412644143423707  # (2/pi) K(0.9)


def grid(n, lo=1e-9, hi=1 - 1e-9):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


class TestEllipK:
    def test_zero(self):
        assert ellip_k(0.0) == PI / 2

    def test_half_closed_form(self):
        closed = PI * math.sqrt(PI) / (2.0 * specfun.GAMMA_THREE_QUARTER ** 2)
        assert abs(ellip_k(0.5) - closed) <= 1e-13 * closed
        assert ellip_k(0.5) == pytest.approx(1.854074677301372, rel=1e-14)

    def test_quadrature_oracle_09(self):
        fresh = oracles.quad_k(0.9)
        assert abs(fresh - QUAD_K_09) <= 1e-13 * QUAD_K_09
        assert abs(ellip_k(0.9) - QUAD_K_09) <= 1e-13 * QUAD_K_09

    def test_quadrature_sweep(self):
        for x in [1e-6, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]:
            assert ellip_k(x) == pytest.approx(oracles.quad_k(x), rel=1e-13)

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                ellip_k(bad)

    def test_increasing(self):
        xs = grid(300)
        vals = [ellip_k(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestEllipE:
    def test_endpoints(self):
        assert ellip_e(0.0) == PI / 2
        assert ellip_e(1.0) == 1.0

    def test_quadrature_oracle_03(self):
        fresh = oracles.quad_e(0.3)
        assert abs(fresh - QUAD_E_03) <= 1e-13 * QUAD_E_03
        assert abs(ellip_e(0.3) - QUAD_E_03) <= 1e-13 * QUAD_E_03

    def test_quadrature_sweep(self):
        for x in [0.01, 0.2, 0.5, 0.8, 0.99]:
            assert ellip_e(x) == pytest.approx(oracles.quad_e(x), rel=1e-13)

    def test_domain(self):
        for bad in (-1e-9, 1.0000001):
            with pytest.raises(DomainError):
                ellip_e(bad)

    def test_decreasing_and_ordering(self):
        xs = grid(300)
        prev = None
        for x in xs:
            k, e = ellip_k(x), ellip_e(x)
            assert k >= PI / 2 and e <= PI / 2
            assert k > e  # strict for x > 0
            if prev is not None:
                assert e < prev
            prev = e


class TestHyp2f1:
    def test_at_zero(self):
        assert hyp2f1(0.5, 0.5, 1.0, 0.0) == 1.0
        assert hyp2f1(2.0, 3.0, 4.5, 0.0) == 1.0

    def test_k_representation(self):
        # (pi/2) 2F1(1/2,1/2;1;x) is the first-kind integral
        val = hyp2f1(0.5, 0.5, 1.0, 0.5)
        assert val == pytest.approx((2.0 / PI) * ellip_k(0.5), rel=1e-14)

    def test_gauss_value_at_one(self):
        # Gamma(2)Gamma(1)/Gamma(3/2)^2 = 4/pi, cross-checked by the series
        target = oracles.gamma(2.0) * oracles.gamma(1.0) / oracles.gamma(1.5) ** 2
        assert target == pytest.approx(4.0 / PI, rel=1e-15)
        # near-one series cross-check; the n^-3 term tail makes the default
        # threshold needlessly deep here, 1e-11 already gives ~2e-8 truncation
        near = hyp2f1(0.5, 0.5, 2.0, 1.0 - 1e-6, rel_tol=1e-11)
        assert near == pytest.approx(4.0 / PI, abs=1e-5)

    def test_negative_argument(self):
        # Euler transformation is an exact identity, also for x < 0
        direct = hyp2f1(0.5, 0.5, 1.25, -0.7)
        euler = oracles.hyp2f1_euler(0.5, 0.5, 1.25, -0.7)
        assert direct == pytest.approx(euler, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, 0.0, 0.5)
        with pytest.raises(DomainError):
            hyp2f1(0.5, 0.5, -3.0, 0.5)

    def test_term_cap(self):
        with pytest.raises(ConvergenceError):
            hyp2f1(0.5, 0.5, 1.0, 0.999999, max_terms=1000)

    # to the bit, sums that converge before the cap, some close to it
    @pytest.mark.parametrize("args, expected", [
        ((0.5, 0.5, 1.0, 0.5), "0x1.2e2acd2eea493p+0"),
        ((0.5, 0.5, 1.0, 0.99), "0x1.2d25cab8ece94p+1"),
        ((0.5, 0.5, 1.0, 0.9999), "0x1.e83d16655da6bp+1"),
        ((0.5, 0.5, 1.0, -0.9), "0x1.b14e01263b9e7p-1"),
        ((1.5, 1.5, 3.0, 0.9), "0x1.f818a12c810adp+1"),
        ((1.0, 1.0, 1.0, 0.5), "0x1.0000000000000p+1"),
        ((1.0, 1.0, 2.0, 0.999), "0x1.ba89f3d352a94p+2"),
        ((2.0, 3.0, 4.5, 0.7), "0x1.138421d6083b0p+2"),
        ((0.25, 0.75, 1.0, 0.999), "0x1.3edf7cdba2594p+1"),
    ])
    def test_converging_sums_unchanged(self, args, expected):
        assert hyp2f1(*args).hex() == expected

    def test_unreachable_cap_fails_at_once(self):
        # 2F1(1/2,1/2;1;x) = (2/pi) K grows like log(1/(1-x)); at the last
        # point of the default grid its terms fall too slowly for the cap
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError) as info:
            hyp2f1(0.5, 0.5, 1.0, 0.999999999)
        assert time.perf_counter() - t0 < 0.1
        assert str(info.value) == ("2F1(0.5, 0.5; 1.0; 0.999999999) "
                                   "did not converge within 1000000 terms")

    @pytest.mark.parametrize("grid_n, budget_s", [("100", 0.1), ("10000", None)])
    def test_table_reproducer(self, grid_n, budget_s):
        # the default grid's other 9,999 points converge, at about 1 s in
        # all; on 100 points only the last one is slow without the bound
        argv = ["table", "2F1", "--param", "a=0.5", "--param", "b=0.5",
                "--param", "c=1", "--grid-n", grid_n]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue() == ("error: at x=0.999999999: 2F1(0.5, 0.5; 1.0; 0.999999999) "
                                  "did not converge within 1000000 terms\n")
        assert budget_s is None or elapsed < budget_s

    @pytest.mark.parametrize("a, b", [(1e200, 1e200), (1e308, 1e308), (math.nan, 0.5)])
    def test_non_finite_sum_stops_at_once(self, a, b):
        # the stop test |t_n| < rel_tol |sum| is False for NaN and inf, so
        # without the check the series would run to the term cap; where
        # a + b overflows, the test of that cap must not raise first
        with pytest.raises(ConvergenceError, match="non-finite partial sum .* after 1 terms"):
            hyp2f1(a, b, 1.0, 0.5)

    def test_underflowing_first_term(self):
        # a*b underflows to 0, so the cap test stops at its t1 > 0 guard,
        # before 1/t1, and the series ends at its first term
        assert specfun._cap_unreachable(1e-200, 1e-200, 1e-200, 0.5, 1e-17, 1_000_000) is False
        assert hyp2f1(1e-200, 1e-200, 1e-200, 0.5) == 1.0

    def test_brute_series_oracle_agreement(self):
        for x in [0.1, 0.5, 0.9, -0.5]:
            mine = hyp2f1(0.5, 0.5, 2.0, x)
            brute = oracles.series_2f1(0.5, 0.5, 2.0, x)
            assert mine == pytest.approx(brute, rel=1e-13)


class TestEulerPath:
    def test_consistency_near_one(self):
        a = hyp2f1(0.5, 0.5, 2.0, 0.99)
        b = oracles.hyp2f1_euler(0.5, 0.5, 2.0, 0.99)
        assert abs(a - b) <= 1e-10 * abs(a)

    def test_at_zero(self):
        assert oracles.hyp2f1_euler(0.5, 0.5, 2.0, 0.0) == 1.0

    def test_k_route_09(self):
        val = oracles.hyp2f1_euler(0.5, 0.5, 1.0, 0.9)
        assert val == pytest.approx(QUAD_K_09_SERIES_SCALED, rel=1e-12)
        assert QUAD_K_09_SERIES_SCALED == pytest.approx(
            (2.0 / PI) * oracles.quad_k(0.9), rel=1e-13)


class TestDerivatives:
    def test_dk_small_x_limit(self):
        # series oracle: d/dx of the small-x series at 0 is pi/8
        fd = oracles.central_diff(oracles.series_k, 1e-5, 1e-6)
        assert fd == pytest.approx(PI / 8, rel=1e-4)
        assert oracles.d_ellip_k(1e-10) == pytest.approx(PI / 8, rel=1e-9)

    def test_dk_substitution_identity(self):
        k, e = ellip_k(0.5), ellip_e(0.5)
        assert oracles.d_ellip_k(0.5) == pytest.approx((e - 0.5 * k) / 0.5, rel=1e-13)

    def test_dk_finite_difference_09(self):
        fd = oracles.central_diff(ellip_k, 0.9, 1e-6)
        assert oracles.d_ellip_k(0.9) == pytest.approx(fd, rel=1e-6)

    def test_de_small_x_limit(self):
        fd = oracles.central_diff(oracles.series_e, 1e-5, 1e-6)
        assert fd == pytest.approx(-PI / 8, rel=1e-4)
        assert oracles.d_ellip_e(1e-10) == pytest.approx(-PI / 8, rel=1e-9)

    def test_de_substitution_identity(self):
        k, e = ellip_k(0.5), ellip_e(0.5)
        assert oracles.d_ellip_e(0.5) == pytest.approx(e - k, rel=1e-13)

    def test_de_negative_on_grid(self):
        for x in grid(100, lo=1e-6, hi=1 - 1e-6):
            assert oracles.d_ellip_e(x) < 0.0

    def test_fd_consistency_sweep(self):
        for x in grid(50, lo=0.01, hi=0.99):
            fd_k = oracles.central_diff(ellip_k, x, 1e-6)
            fd_e = oracles.central_diff(ellip_e, x, 1e-6)
            assert oracles.d_ellip_k(x) == pytest.approx(fd_k, rel=1e-6)
            assert oracles.d_ellip_e(x) == pytest.approx(fd_e, rel=1e-6)

    def test_domain(self):
        for fn in (oracles.d_ellip_k, oracles.d_ellip_e):
            for bad in (0.0, 1.0, -0.5):
                with pytest.raises(DomainError):
                    fn(bad)


class TestKNearOne:
    """K against its asymptotic expansion at x -> 1 (DLMF 19.12.1)."""

    def test_close_agreement(self):
        x = 1.0 - 1e-8
        assert abs(oracles.k_near_one(x) - ellip_k(x)) <= 1e-7

    def test_moderate_agreement(self):
        x = 1.0 - 1e-4
        theta = -0.5 * math.log1p(-x)
        assert abs(oracles.k_near_one(x) - ellip_k(x)) <= 1e-4 * theta

    def test_log_gap_vanishes(self):
        gaps = []
        for k in range(4, 9):
            x = 1.0 - 10.0 ** (-k)
            theta = -0.5 * math.log1p(-x)
            gaps.append(abs(ellip_k(x) - math.log(4.0) - theta))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-7


class TestLegendreResidual:
    def test_symmetric_point(self):
        assert abs(legendre_residual(0.5)) <= 1e-13

    def test_near_ends(self):
        assert abs(legendre_residual(0.01)) <= 1e-12
        assert abs(legendre_residual(0.99)) <= 1e-12

    def test_grid(self):
        for x in grid(100, lo=1e-4, hi=1 - 1e-4):
            assert abs(legendre_residual(x)) <= 1e-12

    @pytest.mark.parametrize("x", [5.55e-17, 1e-300])
    def test_one_minus_x_rounding_to_one_is_a_domain_error(self, x):
        # 1 - x rounds to 1.0, where K(1 - x) is infinite
        with pytest.raises(DomainError, match=r"legendre_residual needs 1 - x < 1"):
            legendre_residual(x)

    def test_smallest_x_whose_complement_rounds_below_one(self):
        x = math.nextafter(2.0**-54, 1.0)
        assert 1.0 - x < 1.0 and 1.0 - math.nextafter(x, 0.0) == 1.0
        value = legendre_residual(x)
        assert math.isfinite(value) and abs(value) < 1e-12


class TestRatioHelpers:
    def test_ke_ratio_limit_and_match(self):
        assert ellip_kept(0.0)[2] == pytest.approx(PI / 4, rel=1e-15)
        for x in [1e-8, 0.1, 0.2499, 0.25, 0.6, 0.95]:
            k, e = ellip_k(x), ellip_e(x)
            expected = (oracles.quad_k(x) - oracles.quad_e(x)) / x if x > 0.01 else None
            assert ellip_kept(x)[2] * x == pytest.approx(k - e, rel=2e-12, abs=1e-15)
            if expected is not None:
                assert ellip_kept(x)[2] == pytest.approx(expected, rel=1e-10)

    def test_ke_ratio2_limit_and_match(self):
        assert ellip_kept(0.0)[3] == pytest.approx(PI / 16, rel=1e-15)
        for x in [0.1, 0.2499, 0.25, 0.6, 0.95]:
            k, e = ellip_k(x), ellip_e(x)
            assert ellip_kept(x)[3] * x * x == pytest.approx((2 - x) * k - 2 * e,
                                                             rel=2e-11, abs=1e-15)

    def test_series_direct_continuity_at_cut(self):
        lo, hi = 0.25 - 1e-12, 0.25
        assert ellip_kept(lo)[2] == pytest.approx(ellip_kept(hi)[2], rel=1e-12)
        assert ellip_kept(lo)[3] == pytest.approx(ellip_kept(hi)[3], rel=1e-11)


class TestOnePassKernel:
    def test_against_mpmath(self):
        # K, P and T2 to 1e-15 relative, E to 3e-15, from x = 1e-12 to
        # the last double below 1: the ladders plus a seeded draw, uniform
        # on (0, 1) and log-uniform toward either end.  Most points sit
        # near 1, where the AGM takes the most steps and E is a small
        # difference of O(K) terms unless it is summed as in ellip_kpt.
        pytest.importorskip("mpmath")
        rng = random.Random(0)
        xs = ([10.0 ** -k for k in range(1, 13)]
              + [1.0 - 10.0 ** -k for k in range(1, 16)]
              + [rng.random() for _ in range(200)]
              + [10.0 ** rng.uniform(-12, 0) for _ in range(200)]
              + [1.0 - 10.0 ** rng.uniform(-15.9, 0) for _ in range(1000)])
        for x in xs:
            got, ref = ellip_kept(x), oracles.mp_kept(x)
            for name, g, r, tol in zip("KEPT", got, ref, (1e-15, 3e-15, 1e-15, 1e-15)):
                assert abs(g - r) <= tol * r, (name, x, g, r)

    def test_zero_limits_and_single_sources(self):
        assert ellip_kept(0.0) == (PI / 2, PI / 2, PI / 4, PI / 16)
        for x in (1e-9, 0.3, 0.9):
            assert ellip_kept(x)[:2] == (ellip_k(x), ellip_e(x))
        with pytest.raises(DomainError):
            ellip_kept(1.0)
        with pytest.raises(DomainError):
            ellip_kept(math.nan)

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    def test_k_only_pass_on_table_grids(self, spacing):
        # ellip_k runs the K-only AGM loop, ellip_kept the full one: every
        # value of a 20k-point `table K` is ellip_kept's K to the bit
        cols = cli._run_table(ScanConfig(n=20000), 0, "K", spacing)[0]
        assert len(cols["x"]) == 20000
        bad = [x for x, v in zip(cols["x"], cols["value"]) if v != ellip_kept(x)[0]]
        assert not bad, bad[:5]


class TestTextRoundTrip:
    def test_unit_arguments_round_trip(self):
        for x in grid(64) + [1e-9, 1 - 1e-9, 0.5]:
            assert float(repr(x)) == x


class TestLogLimit:
    """2F1(1/2,1/2;1;x) / (-log(1-x)) -> 1/pi as x -> 1.

    The relative deviation from 1/pi equals log4/theta with
    theta = -log(1-x)/2: about 30% at x = 1 - 1e-4 and still 15% at
    1 - 1e-8, so the honest check is that the deviation follows that
    rate and shrinks monotonically.
    """

    @staticmethod
    def _ratio(x):
        return (2.0 / PI) * ellip_k(x) / (-math.log1p(-x))

    def test_deviation_follows_log_rate(self):
        devs = []
        for k in range(4, 9):
            x = 1.0 - 10.0 ** (-k)
            theta = -0.5 * math.log1p(-x)
            dev = self._ratio(x) * PI - 1.0
            assert dev == pytest.approx(math.log(4.0) / theta, rel=0.05)
            devs.append(dev)
        assert all(b < a for a, b in zip(devs, devs[1:]))

    @pytest.mark.xfail(
        strict=True,
        reason="a 10%->0.1% band over x = 1-10^-k, k=4..8 is not attainable: "
               "the ratio converges at the logarithmic rate log4/theta, "
               "still ~15% at k=8; 0.1% would need k beyond 600")
    def test_documented_band(self):
        for k, band in zip(range(4, 9), (0.10, 0.05, 0.02, 0.005, 0.001)):
            assert abs(self._ratio(1.0 - 10.0 ** (-k)) * PI - 1.0) <= band
