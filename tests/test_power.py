"""Detection power of certify: how close to each theorem's threshold the
default grid still finds the claim false.

Each row names a theorem, one end of its claimed region and K.  At
10^-k past that end, on the side where the claim is false, certify on
the default grid must report "mixed" for every k = 1..K.  K may only
rise.  The comment beside each row gives the first k it misses and why,
by the group of false verdicts that ROADMAP.md lists it in:

- near 0: the wrong sign lies at x below the endpoint offset 1e-9;
- near 1: the wrong sign lies at 1 - x below the offset;
- within tolerance: the wrong-signed values stay within
  certify.VIOLATION_TOL (1e-12) at every x.

The misses are not asserted: scans past the offset and the exact
leading terms at each end are meant to close them.  The whole table
takes about a second.
"""

import functools

import pytest

from ellipcert import family
from ellipcert.certify import DEFAULT_SCAN, certify_sign
from test_acceptance import A_C_REF

# (theorem, end of the region, side where the claim is false, K)
DETECTION_FLOORS = [
    # misses a_c - 1e-12: within tolerance (g's dip is -3.5e-13)
    ("thm1-convex", A_C_REF, -1, 11),
    # misses 4/3 -+ 1e-5 on both sides: near 0, where the sign of g
    # differs below x ~ (16/3)(a - 4/3)^2, 5.3e-10 at 1e-5
    ("thm1-concave", 4.0 / 3.0, -1, 4),
    ("thm1-concave", 4.0 / 3.0, +1, 4),
    # misses log 4 + 1e-10: near 1, where phi - log 4 shrinks like 1 - x
    ("thm2-convex", family.A_RECIP_CONVEX, +1, 9),
    # misses 8/5 - 1e-10: near 0
    ("thm2-concave", family.A_RECIP_CONCAVE, -1, 9),
    # misses 7/32 - 1e-11: near 0
    ("thm3-logconcave", family.P_LOGCONCAVE, -1, 10),
    # misses 0 + 1e-2: near 1, where p + G ~ p - 1/(2K) turns positive at K ~ 1/(2p)
    ("thm3-logconvex", 0.0, +1, 1),
    # misses 3(2 + sqrt 2)/8 - 1e-11: near 0
    ("cor14-convex", family.P_CONVEX_HI, -1, 10),
    # misses 0 + 1e-2: near 1, where J/x^2 turns negative only for K > ~50
    ("cor14-convex", 0.0, +1, 1),
    # misses 3(2 - sqrt 2)/8 - 1e-11: near 0
    ("cor14-concave", family.P_CONCAVE_LO, -1, 10),
    # misses 1 + 1e-2: near 1, where J/x^2 turns positive only for K > ~50
    ("cor14-concave", 1.0, +1, 1),
    # misses 1/4 - 1e-11: near 0
    ("cor15-monotone", family.P_MONOTONE, -1, 10),
]


@pytest.mark.parametrize("theorem, end, side, k_max", DETECTION_FLOORS,
                         ids=[f"{t}-{'above' if s > 0 else 'below'}-{e:.4g}"
                              for t, e, s, _ in DETECTION_FLOORS])
def test_detection_floor(theorem, end, side, k_max):
    _symbol, factor, claimed, region = family.CLAIMS[theorem]
    for k in range(1, k_max + 1):
        value = end + side * 10.0 ** -k
        if region is not None:  # thm1-convex's region, a >= a_c, is computed
            assert not family.in_region(theorem, value)
        fn = functools.partial(family.COLUMN_FORMS[factor], value)
        assert certify_sign(fn, claimed, DEFAULT_SCAN).verdict == "mixed", (theorem, value, k)
