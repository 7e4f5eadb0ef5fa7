"""Mutation audit: a loosened guard must change a verdict, and a mutant
that only cuts the work up differently must change no byte.

Each mutant sets one module global or one entry of family.COLUMN_FORMS,
read at call time.  A killing mutant has a power case: an input just
past a sharp threshold, which the package fails as it is; under the
mutant the same input passes.  Golden digests catch such a mutant too,
but they catch any change of bytes, so only a changed verdict counts
here.  VIOLATION_TOL is the one slack of both engines, certify's sign
scan and verify's clause reducer, so one patch of it flips a power case
of each.  EQUALITY_TOL's power case is a report's equality points: the
mean-chain clauses are equalities iff x = y, so a pair 3e-4 apart must
name none.

The near-zero power cases are each factor's claim 1e-9 past its
threshold (4/3 + 1e-4 for thm1-concave, whose g has a sqrt cusp there),
false on (0, x0) with x0 below 1e-7: certify finds it at the grid's
first point, 1e-9.  So a default offset 100 times wider (1e-7, through
cli.DEFAULT_SCAN, which build_parser reads per call) misses it, and so
does a column form whose sign is flipped below 1e-7.

An equivalent mutant changes the chunks or batches a scan or reducer
reads, or caps the refinement where it never binds: under it, every
argv of bench seed 1 of a workload that reads the global prints the
bytes pinned in test_golden.BENCH_SEED_1.  _MAX_FLAGGED // 16 is one:
the cap keeps the smallest of the items within 10 times the margin.
Near an isolated zero of a smooth factor, where a verdict can move,
those lie within sqrt(10) times the nearest sample's distance of it,
about four items; where the cap binds, the margin is far from 0 (a flat
factor, as for cor14-convex at 1.5) and no refined sample comes near 0.
A cap of 1 moved no certificate of thm1-convex at a_c - c 10^-k
(c = 1..9, k = 6..12) on 300, 2,000 and 10,000-point grids, nor any
byte of the certify argvs of bench seeds 1-3.
"""

import functools

import pytest

from ellipcert import certify, cli, family, inequalities
from test_golden import BENCH_SEED_1, bench_seed_1_digests

# a_c - 1e-9: g_factor dips to -1.27e-11 near x = 0.4333, 13 times
# VIOLATION_TOL
A_BELOW_A_C = 1.4615692940422917
# a_c - 1e-10: no grid point lies in g_factor's dip, and refinement finds it
A_JUST_BELOW_A_C = 1.4615692949422916


def _thm1_convex(a):
    """certify thm1-convex at a, on the default grid."""
    fn = functools.partial(family.COLUMN_FORMS["g_factor"], a)
    return certify.certify_sign(fn, "nonnegative").verdict


def _sum_bounds_below_a_c():
    """verify sum-bounds --a 1.46064, on the default grid: the lower
    clause exceeds VIOLATION_TOL by at most 8.7e-11, near r = 1/2."""
    return inequalities.check_sum_bounds(1.46064).verdict


FAST = ["--grid-n", "2000"]
# each factor's column form -> a claim on it, 1e-9 past the claim's
# threshold (1e-4 for thm1-concave), that fails only below x = 1e-7
NEAR_ZERO = {
    "g_factor": ("thm1-concave", "1.3334333333333332"),
    "recip_f_second_sign": ("thm2-concave", "1.599999999"),
    "log_h_second_factor": ("thm3-logconcave", "0.218749999"),
    "j_over_x2": ("cor14-concave", repr(family.P_CONCAVE_LO - 1e-9)),
    "l_over_x": ("cor15-monotone", "0.249999999"),
}
# the default scan with its endpoint offset 100 times wider, 1e-7
WIDE_OFFSET = cli.DEFAULT_SCAN._replace(endpoint_offset=cli.DEFAULT_SCAN.endpoint_offset * 100)


def _certify_exit(theorem, value):
    """The exit code of certify theorem value, on a 2,000-point grid."""
    return cli.main(["certify", theorem, value, *FAST])


def _flipped_near_zero(form):
    """form with the sign of its values below x = 1e-7 flipped."""
    return lambda value, xs: [-v if x < 1e-7 else v for x, v in zip(xs, form(value, xs))]


def _near_diagonal_equality_points():
    """The equality points of the mean-chain pair (0.5, 0.5003), whose
    clause margins are -1.3e-8 to -1.8e-8, 13 to 18 times EQUALITY_TOL."""
    return inequalities.check_mean_chain(0.5, 0.5, 0.5003).equality_points


# (module or dict, the name it binds, its mutated value, power case, the
# case's outcome as is, its outcome under the mutant)
MUTANTS = [
    pytest.param(certify, "VIOLATION_TOL", 1e-9, functools.partial(_thm1_convex, A_BELOW_A_C),
                 "mixed", "nonnegative", id="VIOLATION_TOL-thm1-convex"),
    pytest.param(certify, "VIOLATION_TOL", 1e-9, _sum_bounds_below_a_c, "fail", "pass",
                 id="VIOLATION_TOL-sum-bounds"),
    pytest.param(certify, "_REFINE_DEPTH", 0, functools.partial(_thm1_convex, A_JUST_BELOW_A_C),
                 "mixed", "nonnegative", id="_REFINE_DEPTH-thm1-convex"),
    pytest.param(inequalities, "EQUALITY_TOL", inequalities.EQUALITY_TOL * 1000,
                 _near_diagonal_equality_points, [], [0.5], id="EQUALITY_TOL-mean-chain"),
    *(pytest.param(cli, "DEFAULT_SCAN", WIDE_OFFSET, functools.partial(_certify_exit, *claim),
                   1, 0, id=f"DEFAULT_SCAN-offset-{claim[0]}")
      for claim in NEAR_ZERO.values()),
    *(pytest.param(family.COLUMN_FORMS, factor, _flipped_near_zero(family.COLUMN_FORMS[factor]),
                   functools.partial(_certify_exit, *claim), 1, 0,
                   id=f"{factor}-flipped-{claim[0]}")
      for factor, claim in NEAR_ZERO.items()),
]


@pytest.mark.parametrize("owner, name, value, case, as_is, mutated", MUTANTS)
def test_mutant_flips_its_power_case(monkeypatch, owner, name, value, case, as_is, mutated):
    assert case() == as_is
    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, value)
    else:
        monkeypatch.setattr(owner, name, value)
    assert case() == mutated


# (global of certify, its mutated value, the workload that reads it):
# _CHUNK 10**6 is one chunk, the whole column
EQUIVALENT = [("_CHUNK", 7, "verify"), ("_CHUNK", 10 ** 6, "verify"),
              ("_MAX_BATCH", 512, "certify"), ("_MAX_BATCH", 2048, "certify"),
              ("_FIRST_BATCH", 1, "certify"),
              ("_MAX_FLAGGED", certify._MAX_FLAGGED // 16, "certify")]


@pytest.mark.parametrize("name, value, workload", EQUIVALENT,
                         ids=[f"{n}={v}-{w}" for n, v, w in EQUIVALENT])
def test_equivalent_mutant_keeps_every_byte(monkeypatch, capsys, bench_cases, name, value,
                                            workload):
    monkeypatch.setattr(certify, name, value)
    assert bench_seed_1_digests(capsys, bench_cases, workload) == BENCH_SEED_1[workload]
