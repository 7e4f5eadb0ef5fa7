"""Property tests of the command line over arbitrary numeric input.

Every subcommand, given any float or fraction string where it takes a
number, must end with an exit code in {0, 1, 2, 3}, never with a
traceback, and its JSON output must be strict JSON (no NaN or Infinity
tokens).  Every output replays: ``cli.run_from_manifest`` on the
manifest it embeds returns the same text.  Grids are kept at 50 points
so that each example is fast; scan options go only to the commands, and
verify selectors, that read them, each once, so that no argv is refused
and each reaches its run step; one option a verify selector does not read
is a usage error whatever else is given.
The renderer is checked byte for byte against the row-by-row reference
in ``oracles``, over any cells a row can hold, and the inequality grid
against its set-based reference over any valid scan settings (with the
geometric table grid against the loop the table first used), and the
inequality checks' column reducer against the per-point scan it replaced
over any margin columns, and the one-sum finiteness test of a column
against the test of each item.  Every grid point the pairing checks drop has
its mirror near a point they scan.  ``ellip_k``
runs a K-only AGM loop beside the full one of ``specfun.ellip_kpt``; the
two must give the same double at every x in [0, 1).  The factors' pass
skips the E sum; E and every factor must give the same double as on
``oracles.agm_reference``, which sums it, at every x in (0, 1), and so
must every factor's column form at every point of any list.  Where
``hyp2f1`` raises at once that its term cap cannot be met, summing to
the cap must raise the same error.
"""

import bisect
import contextlib
import io
import json
import math
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from oracles import ellip_kept  # noqa: E402
from ellipcert import cli, family, specfun  # noqa: E402
from ellipcert.certify import DEFAULT_SCAN, VIOLATION_TOL, ScanConfig, _all_finite  # noqa: E402
from ellipcert.inequalities import (  # noqa: E402
    EQUALITY_TOL,
    GridColumns,
    _report,
    inequality_grid,
)
from ellipcert.specfun import (  # noqa: E402
    ellip_e,
    ellip_k,
    legendre_residual,
)

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)

FLOATS = st.floats().map(repr)  # NaN and the infinities included
NUMBERS = st.one_of(
    FLOATS,
    st.builds(lambda a, b: f"{a!r}/{b!r}", st.floats(), st.floats()),
    st.sampled_from(["0", "1/0", "0/0", "7/32", "1/4", "1e-320", "2000", "-400"]),
)
UNIT = st.floats(min_value=0.0, max_value=1.0).map(repr)
FORMATS = st.sampled_from(["json", "csv", "text"])
SCAN = st.lists(st.tuples(st.sampled_from(["--lo", "--hi", "--offset"]),
                          st.one_of(FLOATS, UNIT, NUMBERS)),
                max_size=2, unique_by=lambda option: option[0])


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def check(argv, fmt, scan=None):
    """Run argv in fmt; with scan, a list of scan options, on a 50-point
    grid too (None for eval, which takes no scan option, and for verify,
    whose argv holds the options its selector reads)."""
    grid = [] if scan is None else ["--grid-n", "50"]
    argv = argv[:1] + grid + ["--format", fmt] + [f"{k}={v}" for k, v in scan or ()] + argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            pytest.fail(f"argparse rejects {argv}: exit {exc.code}, {err.getvalue()!r}")
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code in (0, 1):
        if fmt == "json":
            manifest = json.loads(out.getvalue(), parse_constant=_reject_constant)["manifest"]
        else:
            manifest = json.loads(out.getvalue().splitlines()[0].partition("manifest: ")[2])
        assert cli.run_from_manifest(manifest) == out.getvalue(), argv
    else:
        assert out.getvalue() == "", argv


def _params(fn, values):
    required = cli._EVAL_FNS[fn][0]
    return [f"--param={k}={v}" for k, v in zip(required, values)]


@SETTINGS
@given(fn=st.sampled_from(sorted(cli._EVAL_FNS)), values=st.lists(NUMBERS, min_size=3, max_size=3),
       xs=st.lists(st.one_of(FLOATS, UNIT), min_size=1, max_size=3), fmt=FORMATS)
def test_eval(fn, values, xs, fmt):
    check(["eval", fn] + _params(fn, values) + xs, fmt)


@SETTINGS
@given(fn=st.sampled_from(sorted(cli._EVAL_FNS)), values=st.lists(NUMBERS, min_size=3, max_size=3),
       spacing=st.sampled_from(["uniform", "geometric"]), fmt=FORMATS, scan=SCAN)
def test_table(fn, values, spacing, fmt, scan):
    check(["table", fn, f"--spacing={spacing}"] + _params(fn, values), fmt, scan)


@SETTINGS
@given(fmt=FORMATS, scan=SCAN)
def test_constants(fmt, scan):
    check(["constants"], fmt, scan)


@SETTINGS
@given(theorem=st.sampled_from(sorted(family.CLAIMS)), value=NUMBERS, fmt=FORMATS, scan=SCAN)
def test_certify(theorem, value, fmt, scan):
    check(["certify", theorem, value], fmt, scan)


def _verify_options(selector, a, p, seed, scan):
    """The drawn options that selector reads, on a 50-point grid where it reads one."""
    drawn = {"--grid-n": "50", **dict(scan), "--a": a, "--p": p, "--seed": seed}
    return [f"{k}={v}" for k, v in drawn.items()
            if k in cli._VERIFY_OPTIONS[selector] and v is not None]


VERIFY_DRAWS = dict(a=st.one_of(st.none(), NUMBERS), p=st.one_of(st.none(), NUMBERS),
                    seed=st.one_of(st.none(), st.integers(0, 2**32)), fmt=FORMATS, scan=SCAN)


@SETTINGS
@given(selector=st.sampled_from(list(cli._VERIFY_OPTIONS)), **VERIFY_DRAWS)
def test_verify(selector, a, p, seed, fmt, scan):
    check(["verify", selector, *_verify_options(selector, a, p, seed, scan)], fmt)


UNREAD = [(selector, option) for selector, reads in cli._VERIFY_OPTIONS.items()
          for option in cli._VERIFY_OPTIONS["all"] if option not in reads]


@SETTINGS
@given(unread=st.sampled_from(UNREAD), data=st.data(), **VERIFY_DRAWS)
def test_verify_unread_option(unread, data, a, p, seed, fmt, scan):
    # refused before any option's value is read; --grid-n and --seed take an int
    selector, option = unread
    value = data.draw(st.integers().map(str) if option in ("--grid-n", "--seed") else NUMBERS)
    argv = ["verify", selector, f"--format={fmt}", f"{option}={value}",
            *_verify_options(selector, a, p, seed, scan)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue()) == (2, ""), argv
    assert err.getvalue() == f"error: selector {selector!r} takes no {option}\n"


FLOAT_CELLS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1e308, -1e308]))
CELL_KINDS = st.sampled_from([
    st.floats(allow_nan=False, allow_infinity=False),
    FLOAT_CELLS,
    st.one_of(FLOAT_CELLS, st.none(), st.integers(), st.booleans(),
              st.text(alphabet=',"\n a%\u00e9', max_size=5)),
])


@st.composite
def tables(draw):
    """Rows with the same keys in the same order; each column all finite
    floats, all floats, or any mix of cells."""
    keys = draw(st.lists(st.text(alphabet='xy_ %",', min_size=1, max_size=4),
                         min_size=1, max_size=4, unique=True))
    n = draw(st.integers(0, 6))
    cols = [draw(st.lists(draw(CELL_KINDS), min_size=n, max_size=n)) for _ in keys]
    return [dict(zip(keys, vals)) for vals in zip(*cols)]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@settings(SETTINGS, max_examples=300)
@given(rows=tables())
@example(rows=[])
# a finite float column whose sum overflows, and one whose sum is NaN
@example(rows=[{"x": 1e308, "v": math.inf}, {"x": 1e308, "v": -math.inf}])
def test_render_matches_reference(fmt, rows):
    manifest = cli.RunManifest("table", {"fn": "K", "spacing": "uniform"},
                               cli.DEFAULT_SCAN, fmt)
    columns = {k: [row[k] for row in rows] for k in rows[0]} if rows else {}
    assert cli._render(columns, manifest, fmt) == oracles.render_reference(rows, manifest, fmt)


def _examples(name, values, **fixed):
    """example(name=v, **fixed) for each of values."""
    def wrap(test):
        for v in values:
            test = example(**{name: v}, **fixed)(test)
        return test
    return wrap


# 0, the smallest subnormal, a deep underflow, the midpoint and every
# 1 - 2^-k down to the last double below 1, where the loop runs longest
K_EXAMPLES = [0.0, 5e-324, 1e-300, 0.5, *(1.0 - 2.0 ** -k for k in range(1, 53)),
              math.nextafter(1.0, 0.0)]


@settings(SETTINGS, max_examples=2000)
@given(x=st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_subnormal=True))
@_examples("x", K_EXAMPLES)
def test_ellip_k_is_ellip_kept_k(x):
    assert ellip_k(x) == ellip_kept(x)[0]


@settings(SETTINGS, max_examples=1000)
@given(x=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
       param=st.floats(-2.0, 3.0))
@_examples("x", [1e-300, 1e-9, 0.5, 1.0 - 1e-9, math.nextafter(1.0, 0.0)], param=1.47)
def test_e_free_kernel_matches_reference(x, param):
    # E, formed apart from the factors' pass, and every factor keep every
    # bit of their values on the pass that summed E beside K, P and T2
    assert _outcome(ellip_kept, x) == _outcome(oracles.agm_reference, x)
    assert _outcome(ellip_e, x) == _outcome(lambda x: oracles.agm_reference(x)[1], x)
    assert (_outcome(legendre_residual, x)
            == _outcome(oracles.legendre_residual_reference, x))
    for name, (takes_param, reference) in oracles.FACTOR_REFERENCES.items():
        args = (param, x) if takes_param else (x,)
        assert _outcome(getattr(family, name), *args) == _outcome(reference, param, x), name


@settings(SETTINGS, max_examples=300)
@given(xs=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=30),
       param=st.floats(-2.0, 3.0))
@example(xs=[1e-300, 0.5, math.nextafter(1.0, 0.0)], param=1.47)
@example(xs=[], param=0.5)
def test_column_forms_match_references(xs, param):
    # a grid reads the column forms: at every point of any list they keep
    # every bit of the per-factor references on oracles.agm_reference
    for name, (takes_param, reference) in oracles.FACTOR_REFERENCES.items():
        form = family.COLUMN_FORMS[name]
        got = form(param, xs) if takes_param else form(xs)
        assert repr(got) == repr([reference(param, x) for x in xs]), name


HYP_PARAMS = st.one_of(st.floats(1e-3, 4.0), st.floats(1e3, 1e12))


@settings(SETTINGS, max_examples=300)
@given(a=HYP_PARAMS, b=HYP_PARAMS, c_share=st.floats(0.0, 1.2),
       one_minus_x=st.floats(1e-12, 1.0, exclude_max=True),
       max_terms=st.integers(1, 3000))
@example(a=0.5, b=0.5, c_share=1.0, one_minus_x=1e-9, max_terms=3000)
@example(a=1.5, b=1.5, c_share=1.0, one_minus_x=1e-3, max_terms=1000)
@example(a=1e10, b=1e10, c_share=0.5, one_minus_x=1e-9, max_terms=3000)  # overflows
def test_hyp2f1_cap_bound_is_sound(a, b, c_share, one_minus_x, max_terms):
    # the early ConvergenceError comes only where summing up to the cap
    # raises the same error; c = c_share (a + b) also covers c > a + b,
    # and large a, b sums that overflow first
    c, x = c_share * (a + b), 1.0 - one_minus_x
    with mock.patch.object(specfun, "_MAX_TERMS", max_terms):
        with mock.patch.object(specfun, "_cap_unreachable", lambda *args: False):
            summed = _outcome(specfun.hyp2f1, a, b, c, x)
        assert _outcome(specfun.hyp2f1, a, b, c, x) == summed


@st.composite
def scan_configs(draw):
    """Valid ScanConfigs: hi - lo >= 1/4 > 2 * endpoint_offset, with the
    midpoint inside or outside [lo, hi] and spans above and below 1."""
    lo = draw(st.floats(0.0, 0.75))
    hi = draw(st.floats(lo + 0.25, 1.0))
    n = draw(st.integers(2, 5000))
    offset = draw(st.one_of(st.floats(1e-15, 0.1),
                            st.floats(-15.0, -1.0).map(lambda e: 10.0 ** e)))
    return ScanConfig(lo=lo, hi=hi, n=n, endpoint_offset=offset)


@settings(SETTINGS, max_examples=300)
@given(cfg=scan_configs())
@_examples("cfg", [
    DEFAULT_SCAN,
    # the first tail point past lo lands on grid[1] (span just above 1)
    ScanConfig(lo=0.25, hi=0.75, n=9, endpoint_offset=0.04999999999999999),
    ScanConfig(n=9, endpoint_offset=0.0999999999999998),
    # 0.5 is already a uniform grid point
    ScanConfig(n=101, endpoint_offset=1e-9),
    # span <= 1: no tails
    ScanConfig(n=5000, endpoint_offset=0.1),
    ScanConfig(n=9, endpoint_offset=0.1),  # span exactly 1
    # the rounding of the geometric ratio lifts a point to 1.0, above hi
    ScanConfig(lo=0.9999999999999994, n=4, endpoint_offset=1.2e-16),
])
def test_inequality_grid_matches_reference(cfg):
    assert inequality_grid(cfg) == oracles.inequality_grid_reference(cfg)
    # the table grids too: geometric bit for bit as the table built it,
    # held at hi where a point would pass it, and both spacings exactly on
    # the ends of the scan, non-decreasing and inside them
    lo, hi = cfg.ends
    geometric = cfg.grid("geometric")
    assert geometric == [min(x, hi) for x in oracles.geometric_grid_reference(cfg)]
    for xs in (cfg.grid(), geometric):
        assert (xs[0], xs[-1]) == cfg.ends and len(xs) == cfg.n
        assert all(lo <= x <= y <= hi for x, y in zip(xs, xs[1:]))


@st.composite
def pair_scan_configs(draw):
    """scan_configs, half of them with hi = 1 - lo."""
    cfg = draw(scan_configs())
    if draw(st.booleans()):
        lo = draw(st.floats(0.0, 0.375))
        cfg = cfg._replace(lo=lo, hi=1.0 - lo)
    return cfg


# On a grid with lo + hi = 1, a dropped point's mirror lies at most this
# many ulp(1) = 2^-52 from a scanned point; measured 1.31 over 3,000
# seeded grids.
MIRROR_ULPS = 2


@settings(SETTINGS, max_examples=300)
@given(cfg=pair_scan_configs())
@_examples("cfg", [
    DEFAULT_SCAN,
    ScanConfig(n=2),
    ScanConfig(lo=0.3, hi=0.9, n=500),
    ScanConfig(n=500, endpoint_offset=0.3),
    ScanConfig(lo=0.6, hi=0.9, n=50),  # every point above 1/2, all kept
])
def test_dropped_pair_points_have_a_scanned_mirror(cfg):
    # the pairing checks scan the points that hold a new pair; every
    # point they drop lies above 1/2 and has its mirror within one grid
    # step of a scanned point, and within MIRROR_ULPS of one on a
    # symmetric grid
    cols = GridColumns(cfg)
    (m, j), xs, scanned = cols.runs, cols.xs, cols.pair_xs
    assert xs == inequality_grid(cfg) and scanned == xs[:m] + xs[j:] and m <= j
    # every point up to 1/2, and above it only those whose pair no point
    # up to 1/2 holds
    assert [x for x in scanned if x <= 0.5] == [x for x in xs if x <= 0.5]
    assert all(1.0 - x < xs[0] for x in scanned if x > 0.5)
    lo, hi = cfg.ends
    step = (hi - lo) / (cfg.n - 1)
    for i in range(m, j):
        mirror = 1.0 - xs[i]  # exact, since xs[i] > 1/2
        assert xs[i] > 0.5 and lo <= mirror < 0.5
        at = bisect.bisect_left(scanned, mirror)
        gap = min(abs(mirror - s) for s in scanned[max(at - 1, 0):at + 1])
        assert gap <= step
        if cfg.lo + cfg.hi == 1.0:
            assert gap <= MIRROR_ULPS * math.ulp(1.0)


# the tolerances, either side of them, signed zeros, and the non-finite values
MARGIN_VALUES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324]
for _tol in (VIOLATION_TOL, EQUALITY_TOL):
    MARGIN_VALUES += [_tol, -_tol, math.nextafter(_tol, 1.0), math.nextafter(-_tol, -1.0),
                      math.nextafter(_tol, 0.0), math.nextafter(-_tol, 0.0)]
NONFINITE = [math.nan, math.inf, -math.inf]
# steps between points: repeats, steps of 1e-7 to 2e-6, and back steps
X_STEPS = st.sampled_from([0.0, 1e-7, 5e-7, 1e-6, 2e-6, 1e-3, 0.2, -0.3])


@st.composite
def margin_columns(draw):
    """Points, and 1-3 clauses with their margin columns and a tight subset.

    Each column draws from the tolerance values (so runs of equality hits
    form bands, adjacent or apart), from small or large floats, and may
    hold one non-finite value at any index."""
    n = draw(st.integers(0, 12))
    xs = [draw(st.floats(0.0, 1.0))]
    for _ in range(n - 1):
        xs.append(xs[-1] + draw(X_STEPS))
    xs = xs[:n]
    clauses = draw(st.lists(st.sampled_from(["lower", "upper", "geo", "mid"]),
                            min_size=1, max_size=3, unique=True))
    columns = {}
    for cl in clauses:
        values = draw(st.sampled_from([
            st.sampled_from(MARGIN_VALUES),
            st.sampled_from([m for m in MARGIN_VALUES if m <= VIOLATION_TOL]),
            st.sampled_from([0.0, -0.0, -1.0]),
            st.floats(-2e-9, 2e-9),
            st.floats(-1e3, VIOLATION_TOL),
            st.one_of(st.sampled_from(MARGIN_VALUES), st.floats(-1e3, 1e3)),
        ]))
        col = draw(st.lists(values, min_size=n, max_size=n))
        if n and draw(st.integers(0, 7)) == 0:
            col[draw(st.integers(0, n - 1))] = draw(st.sampled_from(NONFINITE))
        columns[cl] = col
    tight = draw(st.lists(st.sampled_from(clauses), unique=True))
    return xs, columns, tight


def _chunked(hits: dict[int, float], fill: float | None = None
             ) -> tuple[list[float], dict[str, list[float]], list[str]]:
    """300 points, past two chunks of _report's hit search, with one tight
    clause of margins fill, or alternating +-1 without it, but for the
    values of hits at their indices."""
    col = [(-1.0) ** i if fill is None else fill for i in range(300)]
    for i, m in hits.items():
        col[i] = m
    return [i / 300 for i in range(300)], {"lower": col}, ["lower"]


def _outcome(fn, *args, **kwargs):
    """repr of the result, which tells -0.0 from 0.0, or the exception raised;
    a TypeError, a wrong call rather than an outcome, propagates."""
    try:
        return repr(fn(*args, **kwargs))
    except TypeError:
        raise
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(SETTINGS, max_examples=400)
@given(data=margin_columns(), x_p=st.one_of(st.none(), st.floats(0.0, 1.0)))
@example(data=([], {"lower": []}, []), x_p=None)
@example(data=([], {"lower": [], "upper": []}, ["lower"]), x_p=None)
@example(data=([0.5, 0.6], {"lower": [-0.0, 0.0], "upper": [0.0, -0.0]}, ["upper"]), x_p=None)
@example(data=([0.1, 0.2, 0.3], {"a": [VIOLATION_TOL, 2e-12, 3e-12], "b": [0.0, 2e-12, 1.0]},
               ["a", "b"]), x_p=0.9)
@example(data=([0.1, 0.2], {"a": [0.0, math.nan]}, ["a"]), x_p=None)
@example(data=([0.1, 0.2], {"a": [-math.inf, -math.inf]}, []), x_p=None)
# finite margins whose sum overflows, and infinities whose sum is NaN
@example(data=([0.1, 0.2], {"a": [1e308, 1e308]}, ["a"]), x_p=None)
@example(data=([0.1, 0.2], {"a": [math.inf, -math.inf]}, ["a"]), x_p=None)
# the hit search's chunks: +-1 straddling the tolerance with no hit, hits
# at exactly +-EQUALITY_TOL beside values just outside it, a hit in the
# short last chunk, and hits in adjacent chunks that cluster across their
# boundary
@example(data=_chunked({}), x_p=None)
@example(data=_chunked({0: EQUALITY_TOL, 1: math.nextafter(EQUALITY_TOL, 1.0),
                        130: -EQUALITY_TOL, 131: math.nextafter(-EQUALITY_TOL, -1.0)}),
         x_p=None)
@example(data=_chunked({299: -0.0}), x_p=None)
@example(data=_chunked({5: -EQUALITY_TOL, 200: EQUALITY_TOL}, fill=1.0), x_p=None)
@example(data=_chunked({5: EQUALITY_TOL, 299: -EQUALITY_TOL}, fill=-1.0), x_p=None)
@example(data=_chunked({126: 1e-10, 127: -1e-10, 128: 0.0, 255: 1e-9, 256: -1e-9}), x_p=None)
def test_report_matches_scan_reference(data, x_p):
    xs, columns, tight = data
    cols = list(columns.values())

    def margins_at(i, _x):
        return [col[i] for col in cols]

    assert (_outcome(_report, "check", 0.5, xs, columns, tight, x_p)
            == _outcome(oracles.inequality_scan_reference,
                        "check", 0.5, xs, list(columns), margins_at, tight, x_p))


@settings(SETTINGS, max_examples=300)
@given(col=st.lists(st.one_of(st.floats(), st.sampled_from([1e308, -1e308, *NONFINITE]))))
@example(col=[1e308, 1e308])  # finite, but the sum overflows
@example(col=[math.inf, -math.inf])  # the sum is NaN
@example(col=[math.nan])
@example(col=[-0.0])
@example(col=[])
def test_all_finite_matches_item_test(col):
    assert _all_finite(col) is all(map(math.isfinite, col))
