"""Kernel tests: elliptic integrals, hypergeometric series, derivatives.

Expected values marked as oracle-pinned were produced by the quadrature
or brute-series oracles in oracles.py and frozen; the tests re-derive
them at run time so a drifting oracle or kernel is caught either way.
"""

import contextlib
import hashlib
import io
import math
import random
import struct
import time

import pytest

import oracles
from oracles import ellip_kept
from ellipcert import cli, family, specfun
from ellipcert.certify import DEFAULT_SCAN, ScanConfig
from ellipcert.inequalities import inequality_grid
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
        # near-one cross-check of the series at its own stop test, whose
        # terms fall off like x^n/n^3 here
        mpmath = pytest.importorskip("mpmath")
        x = 1.0 - 1e-3
        with mpmath.workdps(40):
            exact = float(mpmath.hyp2f1(0.5, 0.5, 2, mpmath.mpf(x)))
        assert hyp2f1(0.5, 0.5, 2.0, x) == pytest.approx(exact, rel=1e-13)

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
            hyp2f1(0.5, 0.5, 1.0, 0.999999)

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
        # the stop test |t_n| < _REL_TOL |sum| is False for NaN and inf, so
        # without the check the series would run to the term cap; where
        # a + b overflows, the test of that cap must not raise first
        with pytest.raises(ConvergenceError, match="non-finite partial sum .* after 1 terms"):
            hyp2f1(a, b, 1.0, 0.5)

    def test_underflowing_first_term(self):
        # a*b underflows to 0, so the cap test stops at its t1 > 0 guard,
        # before 1/t1, and the series ends at its first term
        assert specfun._cap_unreachable(1e-200, 1e-200, 1e-200, 0.5) is False
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
        # `table K` reads ellip_k_column, the K-only AGM loop, ellip_kept
        # the full one: every value of a 20k-point table is ellip_kept's K
        # to the bit
        cols = cli._run_table(ScanConfig(n=20000), "K", spacing)[0]
        assert len(cols["x"]) == 20000
        bad = [x for x, v in zip(cols["x"], cols["value"]) if v != ellip_kept(x)[0]]
        assert not bad, bad[:5]


# the smallest normal double (the smallest endpoint_offset), the point
# 1e-150 where the mirror column changes branch and its two neighbours,
# the midpoint and the largest double below 1
MIRROR_EDGES = [2.2250738585072014e-308, math.nextafter(1e-150, 0.0), 1e-150,
                math.nextafter(1e-150, 1.0), 0.5, math.nextafter(1.0, 0.0)]


class TestKColumn:
    """ellip_k_column: the K-only AGM loop over a list of points, and with
    mirror=True K(x) and K(1 - x) at the exact mirror from the same pass."""

    @staticmethod
    def _agree(xs):
        # K to the bit from both loops, from the mirror pass and from
        # ellip_k, which is a one-point call of the column; the mirror pass
        # takes 0 < x only
        k = specfun.ellip_k_column(xs)
        assert k == specfun.ellip_kpt(xs)[0] == [ellip_k(x) for x in xs]
        pos = [i for i, x in enumerate(xs) if x > 0.0]
        assert [k[i] for i in pos] == specfun.ellip_k_column([xs[i] for i in pos],
                                                             mirror=True)[0]

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    def test_table_grids(self, spacing):
        self._agree(ScanConfig(n=20000).grid(spacing))

    @staticmethod
    def _lists(*examples, exclude_min=False, max_examples=300):
        """Run a test on hypothesis lists of doubles in [0, 1), or in (0, 1)
        with exclude_min, and on examples."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=exclude_min,
                         exclude_max=True)

        def wrap(check):
            check = hyp.given(st.lists(unit, min_size=1, max_size=20))(check)
            for xs in examples:
                check = hyp.example(xs)(check)
            return hyp.settings(max_examples=max_examples, deadline=None,
                                derandomize=True, database=None)(check)
        return wrap

    def test_lists(self):
        self._lists([0.0, 1e-300, 0.5, math.nextafter(1.0, 0.0)], MIRROR_EDGES)(self._agree)()

    def test_empty(self):
        assert specfun.ellip_k_column([]) == []
        assert specfun.ellip_k_column([], mirror=True) == ([], [])

    def test_mirror_column_against_mpmath(self):
        # within 4 ulp of 1, relative (4 * 2**-52 * K(1 - x)), of the exact
        # mirror; the worst over 30,000 seeded points, from the smallest
        # subnormal to 1 - 1e-16, was 2.55.  K at the rounded mirror 1 - r
        # is up to 1e-9 off on the first points of the default grid.
        pytest.importorskip("mpmath")

        @self._lists(MIRROR_EDGES, inequality_grid(DEFAULT_SCAN)[:200],
                     exclude_min=True, max_examples=200)
        def check(xs):
            for x, km in zip(xs, specfun.ellip_k_column(xs, mirror=True)[1]):
                ref = oracles.mp_k_mirror(x)
                assert abs(km - ref) <= 4 * 2.0 ** -52 * ref, (x, km, ref)
        check()

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            specfun.ellip_k_column([0.5, bad], mirror=True)


class TestTwoPhaseLoops:
    """Both AGM loops against the one-loop reference they replaced, which
    tests q > 1/2 at every step: every column to the bit.  Above about
    x = 0.87 the first steps have q > 1/2 and run in the first phase: the
    NEAR_ONE points, and about 200 of the points drawn."""

    NEAR_ONE = [0.9, 0.999999, 1 - 1e-9, 1 - 1e-15, math.nextafter(1.0, 0.0)]

    @staticmethod
    def _agree(xs):
        *kpt, kms = oracles.agm_columns_reference(xs)
        assert list(specfun.ellip_kpt(xs)) == kpt
        assert specfun.ellip_k_column(xs) == kpt[0]
        pos = [i for i, x in enumerate(xs) if x > 0.0]
        assert specfun.ellip_k_column([xs[i] for i in pos], mirror=True) == (
            [kpt[0][i] for i in pos], [kms[i] for i in pos])

    def test_lists(self):
        TestKColumn._lists(self.NEAR_ONE, MIRROR_EDGES, [0.0, 5e-324, 1e-300, 0.5])(
            self._agree)()

    def test_nan_ends_both_loops(self):
        # both while tests are False for NaN, so each loop stops at once
        ks, ps, t2s, _tails = specfun.ellip_kpt([math.nan])
        assert all(math.isnan(c[0]) for c in (ks, ps, t2s))
        assert math.isnan(specfun.ellip_k_column([math.nan])[0])


def _digest(column):
    """sha256 of a column's doubles, packed little-endian."""
    return hashlib.sha256(struct.pack(f"<{len(column)}d", *column)).hexdigest()


class TestColumnDigests:
    """The K columns bit for bit, by the sha256 of their doubles: golden
    outputs show margins to 17 digits, not every K."""

    @pytest.mark.parametrize("xs, k, k_mirror", [
        pytest.param(
            inequality_grid(DEFAULT_SCAN),
            "efdb25570e1eae276201b48b0473406e91d4571150df8a5fd31709763486b1a2",
            "c5bd34d1794b94fa1ffdd6348644430a34a60084345894f191c2b91cd1b3a76f",
            id="default-grid"),
        pytest.param(
            MIRROR_EDGES,
            "031fb75ca070ebeaa9d236274b43a9a75634fcc5f112386390ec79dedc637660",
            "3e78d4e80ccfe1837987ef7e2046ccd7e3f6c6e0ba51509008c88fed8be78579",
            id="mirror-edges"),
    ])
    def test_mirror_columns(self, xs, k, k_mirror):
        ks, kms = specfun.ellip_k_column(xs, mirror=True)
        assert (_digest(ks), _digest(kms)) == (k, k_mirror)

    @pytest.mark.parametrize("spacing, k", [
        ("uniform", "35d14ebc6f5c422716093d3ab52cf24ebad2f7dfe400d10fe9c213544ccb3b89"),
        ("geometric", "bdf018e6af4195db15a219507a59099f342be90fe27f7499e50bd2809e77738f"),
    ])
    def test_table_grid_columns(self, spacing, k):
        assert _digest(specfun.ellip_k_column(ScanConfig(n=20000).grid(spacing))) == k

    # the columns (K, P, T2, tail) of ellip_kpt and (u, v, Delta, w_plus,
    # w_minus) of the f'' quadratic, pinned before each loop was split in two
    # phases: on the default scan grid with its geometric tails, on both
    # table grids, and at zero, the smallest subnormal, 1e-300, both
    # neighbours of 1e-150, the midpoint and two points next to 1
    KPT_QUADRATIC_GRIDS = {
        "default-grid": lambda: inequality_grid(DEFAULT_SCAN),
        "uniform": lambda: ScanConfig(n=20000).grid("uniform"),
        "geometric": lambda: ScanConfig(n=20000).grid("geometric"),
        "points": lambda: [0.0, 5e-324, 1e-300, math.nextafter(1e-150, 0.0),
                           math.nextafter(1e-150, 1.0), 0.5, 1 - 1e-15,
                           math.nextafter(1.0, 0.0)],
    }

    @pytest.mark.parametrize("xs, kpt, quadratic", [
        ("default-grid",
         ("efdb25570e1eae276201b48b0473406e91d4571150df8a5fd31709763486b1a2",
          "7e96addb1ac8ad73a9fcc49748825b9ad0cdddb551c22f1c12a4aff5187e4b2c",
          "234fcca3b1b2e21595bfb0ba3e12c73b5e8db300a4ac5e59e3d8a6847157afdb",
          "396072ef13131bf10caa2b53b45d5d4cad12df4a289ad59a0ee309c701555c6c"),
         ("1d6e709493c43bf09e929e370c2eaac33f2b4c90b6ad2ed0b19a9f7b47ed7742",
          "33ab36647370ded5f75db3e6ebf2ecdd33176a5459cdcd135fcf3ad00ec0447f",
          "d91b31fbbe32e4facb42b5b7c3385fb91cb8c788aee6430848ff8cf9443beb41",
          "0cba68f6473e7d9df63b4b4ce136c7a9ef02d9cc67568eef7173cabeed34ff45",
          "9d26aceb6f8d481fb584bb7602e9a0b5ea42ac4b32525e4bf3bb9e5914291968")),
        ("uniform",
         ("35d14ebc6f5c422716093d3ab52cf24ebad2f7dfe400d10fe9c213544ccb3b89",
          "484823c0f455488130ce148d699260099b95e9118f6bda48fd31ccf776bc1b44",
          "443ef2010b5ac3f1a975159ccfc8f28d9a68ba17a3bcac4df77651c63adf0837",
          "4eb5fb0348597f62cc2caa82de39448849e8e8cbfad3d4c6d2876775a75d7b84"),
         ("b4df002902102686a062dcb791a073f33dd3d2c9468ef9dc59794cc0a5381bf0",
          "614de9030fc3231ac473a88abf2715437d5f3d583f70924193db94c487d3bf47",
          "f9b42ed3e435afc20d42a361a9e387e1fd062792558a699c467d1aea67c82eda",
          "4c73dc3491812da2664fe26fecb739c08694eee0ac954c39e3500ee597a714a3",
          "40e7c12b0c4f03be14de644b383d0a12756de21ab79743ba7f07c4ce845d7f23")),
        ("geometric",
         ("bdf018e6af4195db15a219507a59099f342be90fe27f7499e50bd2809e77738f",
          "01f73a22fd28ef99a7566ea34ed80fee8f0a6576ca25c921e079575a35b2fbe1",
          "8cda3a5129ecf4ff46ed907e5d9a2f171132d3f68574ec39dc3fb4cab28418e1",
          "f101872b5fada82bf987ef6d05cc7c85db57fed15bb57326cdb1326166a26b41"),
         ("f4e33cbd682aee93d2583500bef27441c574c088f310172175b83ca9b30e6a58",
          "8eb5f1d540ba6e99c1f5d5297d6b738b37b640b2d6d5cdc886320e29d8234d6a",
          "d5161135c6385b47409127d168938fc3cd38c941e95046c039f513dafd8bcf4a",
          "1a03fbd87403466f6ae7f28b84035b3b36bfc91d2e976c7888e98124592f865c",
          "b2267bddb2e9ac5573fc1f9c7d12f1f865e9bf6788abaa1a991c15476510b6ac")),
        ("points",
         ("ab7423dd408abf4b511bd31519c26cd698ab6656027f8c7c12e67c3ed7cb88a8",
          "c227404a5d2ca7ec2fc38dace96fe1249f43bafb2463a5ad65c0d6af5d3537ec",
          "02b1c290c1b23734515da165a1b0e2cadc7dd8846564b2be9bbbd00cb6924409",
          "27993aab1473d3811d359861a66dd353429885d8e0205b386d3a2c437e1328f5"),
         ("8267bf3ca6e6db23a837417e4ba50bbd70e6b29cf28e0e4b358b8dd8b769f616",
          "c1448522b90bf48ca896feefc91d46cb0e14a21b48776a13dae3a75c6eec6805",
          "2483c431d248be151072502c525b23a6725b97ad5ba33cfd397ed5a574376b36",
          "5123ca705a570329a9fdb8b1e998549ed6d0df6772f83ee29c28be4f9ed3b1ea",
          "91c1ccf617b5ff5741d3bcd5b1f97c4f887411543f3061da1a9d12d7ecab46ba")),
    ], ids=list(KPT_QUADRATIC_GRIDS))
    def test_kpt_and_quadratic_columns(self, xs, kpt, quadratic):
        xs = self.KPT_QUADRATIC_GRIDS[xs]()
        assert tuple(map(_digest, specfun.ellip_kpt(xs))) == kpt
        assert tuple(map(_digest, family._quadratic(xs))) == quadratic

    # E and the Legendre residual, pinned while E was formed by a helper of
    # its own beside ellip_e: on the default scan grid with its geometric
    # tails, 0 and 1, and on a 1,000-point uniform grid
    def test_e_column(self):
        xs = [*inequality_grid(DEFAULT_SCAN), 0.0, 1.0]
        assert _digest(list(map(ellip_e, xs))) == (
            "6a13de577dad2314457d6bba0a20c457777cc3bda48b5ec36adbcff7e5ec3495")

    def test_legendre_residual_column(self):
        assert _digest(list(map(legendre_residual, ScanConfig(n=1000).grid()))) == (
            "2019b964654740b07c90cf0d8abc8d3acc9e98a948d137a1060fc8d7bb06986c")


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
