"""Function-zoo tests: factor identities, endpoint behavior, the
closed forms near x = 0, and the finite-difference sign oracles."""

import functools
import math
import random

import pytest

import oracles
from oracles import ellip_kept
from ellipcert import certify, cli, family
from ellipcert.certify import ExtremumResult, ScanConfig, certify_sign
from ellipcert.family import (
    ALPHA_LEMMA,
    P_CONCAVE_LO,
    P_CONVEX_HI,
    delta_aux,
    f,
    g_aux,
    g_factor,
    h,
    j_factor,
    l_factor,
    log_h_second_factor,
    phi,
    recip_f_second_sign,
    u_aux,
    v_aux,
    w_minus,
    w_plus,
)
from ellipcert.specfun import DomainError, ellip_e, ellip_k

PI = math.pi
LOG4 = math.log(4.0)

# Oracle-pinned: phi(1/2) through the quadrature-backed K, E formula.
PHI_HALF = 1.5183087956085861
# Oracle-pinned: w_plus at 1e-9 (the sqrt(3x/16)/(2u) cusp puts it
# ~1.217e-5 above 4/3 already there).
W_PLUS_1E9 = 1.3333455046123936


def grid(n, lo=1e-9, hi=1 - 1e-9):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


class TestLogShiftFamily:
    def test_endpoint_values(self):
        # the limits pi/(2a) at 0+ and 1 at 1-; at a = log 4, f - 1 is
        # O((1-x) log(1-x)), the error of K = log 4 - log(1-x)/2
        assert f(1.0, 1e-300) == pytest.approx(PI / 2, rel=1e-15)
        assert f(LOG4, 1 - 1e-12) == pytest.approx(1.0, rel=1e-11)
        assert f(2.5, 1e-300) == pytest.approx(PI / 5, rel=1e-15)

    def test_substitution(self):
        val = f(4.0 / 3.0, 0.5)
        expected = ellip_k(0.5) / (4.0 / 3.0 + 0.5 * math.log(2.0))
        assert val == pytest.approx(expected, rel=1e-15)

    def test_endpoint_continuity(self):
        assert f(1.3, 1e-12) == pytest.approx(PI / 2.6, rel=1e-9)
        assert f(1.3, 1 - 1e-12) == pytest.approx(1.0, rel=1e-2)

    def test_domain(self):
        with pytest.raises(DomainError):
            f(1.0, 0.0)
        with pytest.raises(DomainError):
            f(1.0, 1.0)
        # denominator a - log(1-x)/2 fails for negative a near 0
        with pytest.raises(DomainError):
            f(-2.0, 1e-6)


class TestQuadraticCoefficients:
    def test_u_endpoints(self):
        assert u_aux(1e-12) == pytest.approx(9.0 / 16.0, rel=1e-12)
        assert u_aux(1 - 1e-8) < 2.0 / PI

    def test_u_against_series(self):
        # the raw hypergeometric definition, summed by the brute oracle
        for x in [0.05, 0.3, 0.6, 0.9]:
            raw = (oracles.series_2f1(1.5, 1.5, 3.0, x) * (1 - x) / 16.0
                   + oracles.series_2f1(0.5, 0.5, 2.0, x) / 2.0)
            assert u_aux(x) == pytest.approx(raw, rel=1e-12)

    def test_v_endpoint_and_series(self):
        assert v_aux(1e-12) == pytest.approx(1.5, rel=1e-12)
        for x in [0.05, 0.3, 0.6, 0.9]:
            raw = (oracles.series_2f1(0.5, 0.5, 2.0, x) / 2.0
                   + oracles.series_2f1(0.5, 0.5, 1.0, x))
            assert v_aux(x) == pytest.approx(raw, rel=1e-12)
            assert v_aux(x) > 0.0

    def test_delta_zero_and_slope(self):
        assert delta_aux(1e-9) == pytest.approx(1.875e-10, rel=1e-4)
        assert delta_aux(1e-6) / 1e-6 == pytest.approx(3.0 / 16.0, rel=1e-5)

    def test_delta_against_series(self):
        for x in [0.05, 0.3, 0.6, 0.9]:
            u = (oracles.series_2f1(1.5, 1.5, 3.0, x) * (1 - x) / 16.0
                 + oracles.series_2f1(0.5, 0.5, 2.0, x) / 2.0)
            v = (oracles.series_2f1(0.5, 0.5, 2.0, x) / 2.0
                 + oracles.series_2f1(0.5, 0.5, 1.0, x))
            s = oracles.series_2f1(0.5, 0.5, 1.0, x)
            assert delta_aux(x) == pytest.approx(v * v - 4 * u * s, rel=1e-10)

    def test_delta_nonnegative(self):
        for x in grid(500):
            assert delta_aux(x) >= 0.0


class TestWRoots:
    def test_order_and_cusp(self):
        for x in grid(200):
            assert w_plus(x) > w_minus(x)
        assert w_plus(1e-9) == pytest.approx(W_PLUS_1E9, abs=5e-11)
        # both roots converge to 4/3, split by the sqrt(Delta) cusp
        gap = w_plus(1e-9) - 4.0 / 3.0
        assert gap == pytest.approx(1.217e-5, rel=1e-3)
        assert w_minus(1e-9) - 4.0 / 3.0 == pytest.approx(-gap, rel=1e-4)

    @pytest.mark.xfail(
        strict=True,
        reason="w_plus(1e-9) = 4/3 within 1e-7 is not attainable: the root "
               "carries a sqrt(3x/16)/(2u) cusp at 0, already 1.2e-5 at x=1e-9")
    def test_tight_endpoint_value(self):
        assert abs(w_plus(1e-9) - 4.0 / 3.0) <= 1e-7

    def test_w_plus_limit_at_one(self):
        assert w_plus(1 - 1e-9) == pytest.approx(LOG4, abs=2e-4)

    def test_w_minus_upper_bound(self):
        # w_minus(x) <= log(1-x)/2 + 2 everywhere
        for x in grid(500):
            assert w_minus(x) <= 0.5 * math.log1p(-x) + 2.0

    def test_w_minus_diverges(self):
        assert w_minus(1 - 1e-9) < -9.0


class TestGFactor:
    def test_vanishes_on_root(self):
        for x in (0.1, 0.45, 0.8):
            assert abs(g_factor(w_plus(x), x)) <= 1e-13
            assert abs(g_factor(w_minus(x), x)) <= 1e-13

    def test_factored_equals_quadratic(self):
        rng = random.Random(42)
        for _ in range(1000):
            a = rng.uniform(0.5, 2.5)
            x = rng.uniform(1e-6, 1 - 1e-6)
            fac = g_factor(a, x)
            quad = oracles.g_factor_quadratic(a, x)
            assert abs(fac - quad) <= 1e-10 * max(abs(fac), abs(quad), 1e-30)

    def test_concave_at_four_thirds(self):
        for x in grid(2000):
            assert g_factor(4.0 / 3.0, x) <= 0.0

    def test_convex_at_147(self):
        for x in grid(2000):
            assert g_factor(1.47, x) >= 0.0

    def test_second_difference_sign_oracle(self):
        # sign(g) == sign of the centered second difference of f(a, .)
        rng = random.Random(7)
        checked = 0
        for _ in range(1000):
            a = rng.uniform(1.0, 2.0)
            x = rng.uniform(0.01, 0.99)
            g = g_factor(a, x)
            if abs(g) <= 1e-6:
                continue
            fpp = oracles.second_central_diff(lambda t: f(a, t), x, 1e-4)
            assert math.copysign(1.0, fpp) == math.copysign(1.0, g), (a, x, g, fpp)
            checked += 1
        assert checked > 900


class TestPhi:
    def test_series_end(self):
        assert phi(1e-9) == pytest.approx(1.6, abs=2e-10)
        # slope -7/50 near zero
        slope = (phi(2e-4) - phi(1e-4)) / 1e-4
        assert slope == pytest.approx(-7.0 / 50.0, rel=1e-3)

    def test_limit_at_one(self):
        assert phi(1 - 1e-9) == pytest.approx(LOG4, abs=1e-6)

    def test_half_against_quadrature(self):
        k, e = oracles.quad_k(0.5), oracles.quad_e(0.5)
        num = 2 * 0.5 * k * (e - k)
        den = 2 * e * e - 2 * e * k + 0.25 * k * k
        fresh = 0.5 * math.log(0.5) + num / den
        assert fresh == pytest.approx(PHI_HALF, abs=5e-12)
        assert phi(0.5) == pytest.approx(PHI_HALF, abs=5e-12)

    def test_switch_point_agreement(self):
        # the closed form meets the two-term series 8/5 - 7x/50 far below
        # 1e-9 at x = 1e-6, where a series branch used to take over
        x = 1e-6
        assert abs((1.6 - 0.14 * x) - phi(x)) <= 1e-9

    def test_range(self):
        for x in grid(500):
            assert LOG4 < phi(x) < 1.6


class TestRecipF:
    def test_sign_function(self):
        assert recip_f_second_sign(1.5, 0.5) == pytest.approx(phi(0.5) - 1.5, rel=1e-15)

    def test_multiplier_positive(self):
        for x in grid(2000):
            assert oracles.recip_f_multiplier(x) > 0.0

    def test_multiplier_matches_naive(self):
        for x in [0.1, 0.5, 0.9]:
            k, e = ellip_k(x), ellip_e(x)
            naive = 2 * k * e - x * (1 - x) * k * k - 2 * e * e
            assert oracles.recip_f_multiplier(x) == pytest.approx(naive, rel=1e-10)

    def test_crossing_at_intermediate_a(self):
        # a = 1.5 lies inside (log 4, 8/5): phi - a changes sign once
        root = oracles.bisect(lambda x: recip_f_second_sign(1.5, x), 1e-6, 1 - 1e-6)
        assert 0.0 < root < 1.0
        assert recip_f_second_sign(1.5, root / 2) > 0.0
        assert recip_f_second_sign(1.5, (1 + root) / 2) < 0.0


class TestPowerFamily:
    def test_h_values_and_endpoints(self):
        assert h(0.5, 0.5) == pytest.approx(math.sqrt(0.5) * ellip_k(0.5), rel=1e-15)
        # the limits pi/2 at 0+ and 0 at 1- (p > 0), the latter like
        # (1-x)^p (log 4 - log(1-x)/2)
        assert h(0.3, 1e-300) == pytest.approx(PI / 2, rel=1e-15)
        x = 1 - 1e-12
        assert h(0.3, x) == pytest.approx((1 - x) ** 0.3 * (LOG4 - 0.5 * math.log1p(-x)),
                                          rel=1e-9)
        with pytest.raises(DomainError):
            h(0.5, 0.0)
        with pytest.raises(DomainError):
            h(0.5, 1.0)

    def test_g_aux_series_end(self):
        assert g_aux(1e-9) == pytest.approx(-7.0 / 32.0, abs=1e-7)
        slope = (g_aux(3e-4) - g_aux(2e-4)) / 1e-4
        assert slope == pytest.approx(1.0 / 32.0, rel=1e-2)

    def test_g_aux_switch_point_agreement(self):
        # the closed form meets the two-term series -7/32 + x/32 far below
        # 1e-9 at x = 1e-5, where a series branch used to take over
        x = 1e-5
        assert abs((-7.0 / 32.0 + x / 32.0) - g_aux(x)) <= 1e-9

    def test_g_aux_range_and_log_rate(self):
        for x in grid(500):
            assert -7.0 / 32.0 < g_aux(x) < 0.0
        # approach to 0 is logarithmic: G ~ -1/(2K) + 1/(4K^2)
        x = 1 - 1e-9
        k = ellip_k(x)
        assert g_aux(x) == pytest.approx(-1 / (2 * k) + 1 / (4 * k * k), rel=1e-4)

    def test_log_h_second_factor(self):
        assert log_h_second_factor(0.1, 0.5) == pytest.approx(0.1 + g_aux(0.5), rel=1e-15)

    def test_log_h_sign_oracle(self):
        # sign(p + G) is opposite to the second difference of log h
        rng = random.Random(3)
        for _ in range(300):
            p = rng.uniform(-0.3, 0.6)
            x = rng.uniform(0.05, 0.95)
            factor = log_h_second_factor(p, x)
            if abs(factor) <= 1e-6:
                continue
            fpp = oracles.second_central_diff(
                lambda t: math.log(h(p, t)), x, 1e-4)
            assert math.copysign(1.0, fpp) == -math.copysign(1.0, factor)


class TestSmallX:
    def test_phi_and_g_aux_against_mpmath(self):
        # The closed forms hold to an ulp or two right down to x = 1e-12;
        # the two-term series 8/5 - 7x/50 and -7/32 + x/32 they replace
        # were off by 3.7e-14 and 1.4e-12 just below their switch points
        # x = 1e-6 and 1e-5.
        pytest.importorskip("mpmath")
        for x in (1e-12, 1e-9, 1e-7, 5e-7, 1e-6, 3e-6, 1e-5, 3e-5):
            assert abs(phi(x) - oracles.mp_phi(x)) <= 2e-15, x
            assert abs(g_aux(x) - oracles.mp_g(x)) <= 2e-15, x


class TestJFactor:
    def test_matches_raw_formula(self):
        for p in (0.1, 0.5, 1.3):
            for x in (0.05, 0.3, 0.7, 0.95):
                k, e = ellip_k(x), ellip_e(x)
                raw = (((4 * p * p - 8 * p + 3) * x * x + (4 * p - 5) * x + 2) * k
                       - 2 * (2 * (p - 1) * x + 1) * e)
                assert j_factor(p, x) == pytest.approx(raw, rel=1e-11, abs=1e-14)

    def test_second_difference_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rng.uniform(0.0, 1.6)
            x = rng.uniform(0.05, 0.95)
            jv = j_factor(p, x)
            if abs(jv) <= 1e-6:
                continue
            hpp = oracles.second_central_diff(lambda t: h(p, t), x, 1e-4)
            assert math.copysign(1.0, hpp) == math.copysign(1.0, jv)

    def test_small_x_limit(self):
        # J/(4x^2) -> (pi/64)(32p^2 - 48p + 9)
        for p in (0.1, 0.5, 1.3):
            got = j_factor(p, 1e-6) / (4.0 * 1e-12)
            want = (PI / 64) * (32 * p * p - 48 * p + 9)
            assert got == pytest.approx(want, rel=1e-4)

    def test_threshold_roots_algebraic(self):
        for p in (P_CONVEX_HI, P_CONCAVE_LO):
            assert abs(32 * p * p - 48 * p + 9) <= 1e-14

    def test_limit_toward_one_correction_structure(self):
        # J/(x^2 K) = 4p(p-1) - 2(2p-1) E/K + O(1-x): the constant is
        # approached at the 1/K (logarithmic) rate except at p = 1/2,
        # where the correction coefficient 2(2p-1) vanishes identically
        x = 1.0 - 1e-6
        k, e = ellip_k(x), ellip_e(x)
        for p in (0.5, 2.0):
            got = j_factor(p, x) / (x * x * k)
            with_corr = 4 * p * (p - 1) - 2 * (2 * p - 1) * e / k
            assert got == pytest.approx(with_corr, abs=5e-5)
        assert abs(j_factor(2.0, x) / (x * x * k) - 8.0) > 0.7  # 1/K-rate gap

    def test_sign_regimes(self):
        xs = grid(400)
        assert all(j_factor(P_CONVEX_HI + 1e-3, x) >= -1e-12 for x in xs)
        assert all(j_factor(1.0, x) <= 1e-12 for x in xs)


class TestLFactor:
    def test_matches_raw_formula(self):
        for p in (0.05, 0.25, 0.6):
            for x in (0.1, 0.5, 0.9):
                k, e = ellip_k(x), ellip_e(x)
                raw = e + ((1 - 2 * p) * x - 1) * k
                assert l_factor(p, x) == pytest.approx(raw, rel=1e-11, abs=1e-15)

    def test_slope_sign_at_zero(self):
        # L/x -> (pi/4)(1 - 4p): positive below p = 1/4, negative above
        assert l_factor(0.1, 1e-9) / 1e-9 == pytest.approx(
            (PI / 4) * (1 - 0.4), rel=1e-6)
        assert l_factor(0.1, 1e-7) > 0.0
        assert l_factor(0.4, 1e-7) < 0.0

    def test_quarter_nonpositive(self):
        for x in grid(400):
            assert l_factor(0.25, x) <= 0.0

    def test_single_sign_change_p01(self):
        root = oracles.bisect(lambda x: l_factor(0.1, x), 1e-6, 1 - 1e-9)
        for x in grid(100, hi=root - 1e-6):
            assert l_factor(0.1, x) > 0.0
        for x in grid(100, lo=root + 1e-6):
            assert l_factor(0.1, x) < 0.0


class TestCriticalConstants:
    """The algebraic thresholds that `constants` prints, and its check that
    the computed a_c lies strictly between log 4 and 8/5."""

    def test_algebraic_fields(self):
        assert family.P_LOGCONCAVE == 7.0 / 32.0
        assert family.P_MONOTONE == 0.25
        assert P_CONVEX_HI == pytest.approx(1.2803300858899106, rel=1e-15)
        assert P_CONCAVE_LO == pytest.approx(0.21966991411008936, rel=1e-15)
        assert family.A_RECIP_CONVEX == pytest.approx(LOG4, rel=1e-15)
        assert family.A_RECIP_CONCAVE == 1.6
        assert ALPHA_LEMMA == pytest.approx(0.5031769496440119, rel=1e-14)

    def test_a_c_window_enforced(self, monkeypatch, capsys):
        for a_c in (1.2, 1.7):
            monkeypatch.setattr(cli, "find_a_c",
                                lambda cfg, a_c=a_c: ExtremumResult(0.5, a_c, 1e-10))
            assert cli.main(["constants"]) == cli.EXIT_USAGE
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == f"error: a_c={a_c!r} must lie in (log 4, 8/5)\n"


class TestLemmaDomains:
    """The two quadratic lower bounds of the kernel hold on (0, alpha]
    with alpha = (8/97)(11 - 2 sqrt 6) ~ 0.5032, the domain their
    monotone-ratio argument covers.  Toward x = 1 their right sides grow
    like K and overtake the bounded left sides, so the full-interval
    versions are false; these tests pin where.
    """

    @staticmethod
    def _sq_margin(x):
        # (pi/16) x^2 K - (E^2 - (1-x) K^2); positive means violated
        return x * x * ((PI / 16) * ellip_k(x)
                        - (ellip_kept(x)[2] ** 2 - ellip_k(x) * ellip_kept(x)[3]))

    @staticmethod
    def _gap_margin(x):
        # (x^2/16) K - (E - sqrt(1-x) K); positive means violated
        return x * (x * ellip_k(x) / 16
                    - (ellip_k(x) / (1 + math.sqrt(1 - x)) - ellip_kept(x)[2]))

    def test_hold_on_alpha_domain(self):
        for i in range(1, 2001):
            x = ALPHA_LEMMA * i / 2000
            assert self._sq_margin(x) <= 1e-12
            assert self._gap_margin(x) <= 1e-12

    def test_sq_bound_fails_near_one(self):
        # crossing at x ~ 0.9993110; clearly violated at 0.9995
        assert self._sq_margin(0.9995) > 0.02
        assert self._sq_margin(0.999) < 0.0

    def test_gap_bound_fails_at_float_edge(self):
        # crossing at 1 - x ~ 2.03e-13, still inside double range
        assert self._gap_margin(1.0 - 1e-13) > 0.01
        assert self._gap_margin(1.0 - 1e-9) < 0.0


class TestDomainRejection:
    @pytest.mark.parametrize("fn", [
        u_aux, v_aux, delta_aux, w_plus, w_minus, phi, g_aux,
        oracles.recip_f_multiplier,
        lambda x: g_factor(1.4, x),
        lambda x: j_factor(0.5, x),
        lambda x: l_factor(0.1, x),
        lambda x: h(0.5, x),
    ])
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.2])
    def test_rejects_outside_unit_interval(self, fn, bad):
        with pytest.raises(DomainError):
            fn(bad)


# family function -> the name its domain error gives (the ones that were
# phi(x) - a and p + G(x) keep the message of phi and g_aux)
DOMAIN_NAMES = {
    "u_aux": "u_aux", "v_aux": "v_aux", "delta_aux": "delta_aux",
    "w_plus": "w_plus", "w_minus": "w_minus", "g_factor": "g_factor",
    "phi": "phi", "recip_f_second_sign": "phi", "g_aux": "g_aux",
    "log_h_second_factor": "g_aux", "j_factor": "j_factor", "l_factor": "l_factor",
}


class TestHotPath:
    """A certify scan calls its factor's column form once per batch, each
    call is one kernel pass over the batch's points, and no domain check
    runs on the scan path; a scalar name calls require_unit_interval once
    on every call, its one domain test, then makes one one-point kernel
    pass if x passes it."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"kernel": [], "domain": 0}
        kernel, domain = family.ellip_kpt, family.require_unit_interval

        def counted_kernel(xs):
            counts["kernel"].append(len(xs))
            return kernel(xs)

        def counted_domain(*args):
            counts["domain"] += 1
            return domain(*args)

        monkeypatch.setattr(family, "ellip_kpt", counted_kernel)
        monkeypatch.setattr(family, "require_unit_interval", counted_domain)
        return counts

    @pytest.mark.parametrize("theorem", sorted(family.CLAIMS))
    def test_one_kernel_pass_per_batch(self, monkeypatch, theorem, counts):
        symbol, factor, claimed, _ = family.CLAIMS[theorem]
        monkeypatch.setattr(certify, "_REFINE_DEPTH", 2)
        batches = []
        for value in ((1.3, 1.5) if symbol == "a" else (0.1, 0.3)):
            fn = functools.partial(family.COLUMN_FORMS[factor], value)

            def counted(xs, fn=fn):
                batches.append(len(xs))
                return fn(xs)
            certify_sign(counted, claimed, ScanConfig(n=200))
        assert batches
        assert counts == {"kernel": batches, "domain": 0}

    @pytest.mark.parametrize("name", sorted(DOMAIN_NAMES))
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.2, math.nan, math.inf, -math.inf])
    def test_domain_message_unchanged(self, name, bad, counts):
        takes_param = oracles.FACTOR_REFERENCES[name][0]
        args = (0.3, bad) if takes_param else (bad,)
        expected = f"{DOMAIN_NAMES[name]} must lie in the open interval (0, 1); got {bad!r}"
        with pytest.raises(DomainError) as info:
            getattr(family, name)(*args)
        assert str(info.value) == expected
        assert counts == {"kernel": [], "domain": 1}

    @pytest.mark.parametrize("name", sorted(DOMAIN_NAMES))
    def test_valid_call_counts_one_domain_test(self, name, counts):
        takes_param = oracles.FACTOR_REFERENCES[name][0]
        getattr(family, name)(*((0.3, 0.5) if takes_param else (0.5,)))
        assert counts == {"kernel": [1], "domain": 1}
