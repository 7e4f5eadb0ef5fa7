"""Mutation audit: a loosened guard must change a verdict.

Each mutant multiplies one tolerance, a module global read at call time,
by 1000.  Its power case is an input just past a sharp threshold, which
the package fails as it is; under the mutant the same input passes.
Golden digests catch such a mutant too, but they catch any change of
bytes, so only a changed verdict counts here.
"""

import functools

import pytest

from ellipcert import certify, family, inequalities

# a_c - 1e-9: g_factor dips to -1.27e-11 near x = 0.4333, 13 times
# SIGN_TOLERANCE
A_BELOW_A_C = 1.4615692940422917


def _thm1_convex_below_a_c():
    """certify thm1-convex at a_c - 1e-9, on the default grid."""
    fn = functools.partial(family.COLUMN_FORMS["g_factor"], A_BELOW_A_C)
    return certify.certify_sign(fn, "nonnegative").verdict


def _sum_bounds_below_a_c():
    """verify sum-bounds --a 1.46064, on the default grid: the lower
    clause exceeds VIOLATION_TOL by at most 8.7e-11, near r = 1/2."""
    return inequalities.check_sum_bounds(1.46064).verdict


# (module, tolerance, power case, its verdict as is, its verdict under the mutant)
MUTANTS = [
    pytest.param(certify, "SIGN_TOLERANCE", _thm1_convex_below_a_c, "mixed", "nonnegative",
                 id="SIGN_TOLERANCE-thm1-convex"),
    pytest.param(inequalities, "VIOLATION_TOL", _sum_bounds_below_a_c, "fail", "pass",
                 id="VIOLATION_TOL-sum-bounds"),
]


@pytest.mark.parametrize("module, name, case, as_is, mutated", MUTANTS)
def test_mutant_flips_its_power_case(monkeypatch, module, name, case, as_is, mutated):
    assert case() == as_is
    monkeypatch.setattr(module, name, 1000 * getattr(module, name))
    assert case() == mutated
