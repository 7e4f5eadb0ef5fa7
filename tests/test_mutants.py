"""Mutation audit: a loosened guard must change a verdict, and a mutant
that only cuts the work up differently must change no byte.

Each mutant sets one global of certify, read at call time.  A killing
mutant has a power case: an input just past a sharp threshold, which the
package fails as it is; under the mutant the same input passes.  Golden
digests catch such a mutant too, but they catch any change of bytes, so
only a changed verdict counts here.  VIOLATION_TOL is the one slack of
both engines, certify's sign scan and verify's clause reducer, so one
patch of it flips a power case of each.

An equivalent mutant changes the chunks or batches a scan or reducer
reads: under it, every argv of bench seed 1 of a workload that reads the
global prints the bytes pinned in test_golden.BENCH_SEED_1.
"""

import functools

import pytest

from ellipcert import certify, family, inequalities
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


# (global of certify, its mutated value, power case, its verdict as is,
# its verdict under the mutant)
MUTANTS = [
    pytest.param("VIOLATION_TOL", 1e-9, functools.partial(_thm1_convex, A_BELOW_A_C),
                 "mixed", "nonnegative", id="VIOLATION_TOL-thm1-convex"),
    pytest.param("VIOLATION_TOL", 1e-9, _sum_bounds_below_a_c, "fail", "pass",
                 id="VIOLATION_TOL-sum-bounds"),
    pytest.param("_REFINE_DEPTH", 0, functools.partial(_thm1_convex, A_JUST_BELOW_A_C),
                 "mixed", "nonnegative", id="_REFINE_DEPTH-thm1-convex"),
]


@pytest.mark.parametrize("name, value, case, as_is, mutated", MUTANTS)
def test_mutant_flips_its_power_case(monkeypatch, name, value, case, as_is, mutated):
    assert case() == as_is
    monkeypatch.setattr(certify, name, value)
    assert case() == mutated


# (global of certify, its mutated value, the workload that reads it):
# _CHUNK 10**6 is one chunk, the whole column
EQUIVALENT = [("_CHUNK", 7, "verify"), ("_CHUNK", 10 ** 6, "verify"),
              ("_MAX_BATCH", 512, "certify"), ("_MAX_BATCH", 2048, "certify"),
              ("_FIRST_BATCH", 1, "certify")]


@pytest.mark.parametrize("name, value, workload", EQUIVALENT,
                         ids=[f"{n}={v}-{w}" for n, v, w in EQUIVALENT])
def test_equivalent_mutant_keeps_every_byte(monkeypatch, capsys, bench_cases, name, value,
                                            workload):
    monkeypatch.setattr(certify, name, value)
    assert bench_seed_1_digests(capsys, bench_cases, workload) == BENCH_SEED_1[workload]
