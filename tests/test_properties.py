"""Property tests of the command line over arbitrary numeric input.

Every subcommand, given any float or fraction string where it takes a
number, must end with an exit code in {0, 1, 2, 3}, never with a
traceback, and its JSON output must be strict JSON (no NaN or Infinity
tokens).  Grids are kept at 50 points so that each example is fast.
The renderer is checked byte for byte against the row-by-row reference
in ``oracles``, over any cells a row can hold.
"""

import contextlib
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import oracles  # noqa: E402
from ellipcert import cli  # noqa: E402

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
                          st.one_of(FLOATS, UNIT, NUMBERS)), max_size=2)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def check(argv, fmt, scan):
    argv = argv[:1] + ["--grid-n", "50", "--format", fmt] + [f"{k}={v}" for k, v in scan] + argv[1:]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code in (0, 1):
        if fmt == "json":
            json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == "", argv


def _params(fn, values):
    required = cli._EVAL_FNS[fn][0]
    return [f"--param={k}={v}" for k, v in zip(required, values)]


@SETTINGS
@given(fn=st.sampled_from(sorted(cli._EVAL_FNS)), values=st.lists(NUMBERS, min_size=3, max_size=3),
       xs=st.lists(st.one_of(FLOATS, UNIT), min_size=1, max_size=3), fmt=FORMATS, scan=SCAN)
def test_eval(fn, values, xs, fmt, scan):
    check(["eval", fn] + _params(fn, values) + xs, fmt, scan)


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
@given(theorem=st.sampled_from(sorted(cli._CERTIFY_TABLE)), value=NUMBERS, fmt=FORMATS, scan=SCAN)
def test_certify(theorem, value, fmt, scan):
    check(["certify", theorem, value], fmt, scan)


@SETTINGS
@given(selector=st.sampled_from(cli._VERIFY_SELECTORS), a=st.one_of(st.none(), NUMBERS),
       p=st.one_of(st.none(), NUMBERS), seed=st.integers(0, 2**32), fmt=FORMATS, scan=SCAN)
def test_verify(selector, a, p, seed, fmt, scan):
    argv = ["verify", selector, f"--seed={seed}"]
    argv += ["--a", a] * (a is not None) + ["--p", p] * (p is not None)
    check(argv, fmt, scan)


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
def test_render_matches_reference(fmt, rows):
    manifest = cli.RunManifest("table", {"fn": "K", "spacing": "uniform"},
                               cli.DEFAULT_SCAN, fmt, 0)
    assert cli._render(rows, manifest, fmt) == oracles.render_reference(rows, manifest, fmt)
