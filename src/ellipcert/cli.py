"""Command-line front end: evaluate the function zoo, compute the sharp
constants, run sign certifications, verify the inequality corollaries,
and emit plot-ready tables.

Each command is two steps in ``_COMMANDS``: a parse step from the argparse
namespace to the manifest's parameters, and a run step ``run(cfg,
**parameters) -> (columns, exit code)``, whose columns are a dict of
equal-length lists with its keys in output order; ``_render`` formats them
as they are, so no step builds a dict per row, and writes each table body
with one format call, with no string per row.  Every run embeds its manifest
(command, parameters, scan configuration, output format) in its output;
``main`` runs the manifest it records through ``_run``, and
``run_from_manifest`` runs a parsed one through it too, so a replay
byte-reproduces the output.  A command, and each ``verify`` selector, takes
only the options it reads (``_VERIFY_OPTIONS``), each by its full name only
and, ``--param`` aside, once, and a setting it has no option for keeps its
default; ``eval`` and ``table`` take exactly the ``--param`` keys their
function needs, each once: any other option, prefix or key is a usage error.
Both evaluate their last point first, so a function that fails there fails at
once; every evaluation error names its point.
Exit codes: 0 verified/pass, 1 counterexample found, 2 usage or domain
error (an unwritable ``--out`` or a grid too large for memory too), 3 inconclusive.
Start-up loads neither ``inequalities`` nor ``csv``: ``verify`` and csv output do.
``main`` builds only the invoked command's subparser; the full parser, every
command's, serves top-level help and usage errors.
``certify`` reads its theorem ids, factors and claimed signs from ``family.CLAIMS``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import shutil
import sys
from collections import namedtuple

from . import family, specfun
from .certify import (
    DEFAULT_SCAN,
    SPACINGS,
    InconclusiveScanError,
    ScanConfig,
    _all_finite,
    certify_sign,
    find_a_c,
    in_batches,
)
from .specfun import ConvergenceError, DomainError

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
_FORMATS = ("json", "csv", "text")


class RunManifest(namedtuple("RunManifest", "command parameters scan output_format")):
    """Everything needed to reproduce a run byte-for-byte, checked however built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field, names in (("command", _COMMANDS), ("output_format", _FORMATS)):
            if getattr(self, field) not in names:
                raise ValueError(f"{field} must be one of {', '.join(names)}; "
                                 f"got {getattr(self, field)!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace validates

    def _asdict(self) -> dict[str, object]:  # as outputs embed it: scan a dict, not a list
        return {**super()._asdict(), "scan": self.scan._asdict()}


def fmt_full(v: object) -> str:
    """Full-precision text: 17 significant digits round-trip a double."""
    if isinstance(v, float):
        return format(v, ".17g")
    return "" if v is None else str(v)


def fmt_human(v: object) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return "" if v is None else str(v)


def _null_nonfinite(v: object) -> object:
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _null_nonfinite(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_null_nonfinite(x) for x in v]
    return v


def _json(obj: object, **kwargs: object) -> str:
    """Strict JSON: a NaN or infinite value is written as null, never as
    the NaN/Infinity tokens that JSON does not have."""
    return json.dumps(_null_nonfinite(obj), allow_nan=False, **kwargs)


def _render(columns: dict[str, list], manifest: RunManifest, fmt: str) -> str:
    """The columns of a run step, keys in output order, as text: byte for
    byte what json.dumps(indent=2), csv.writer or ljust write row by row.

    A table is one % call, with no string built per row: a row template,
    repeated once per row, applied to the cells in row order, which slice
    assignment interleaves from the columns in C.  json and text put their
    head, its own % signs escaped, in front of it, which keeps one large
    string fewer alive than joining head and body.  json takes a column of
    finite floats (certify._all_finite, one C-level sum) as floats through
    %r, which is what json writes for them, and any other column as its
    json cells through %s.  csv takes a table of float columns through
    %.17g and leaves a table with any other column to csv.writer, whose
    quoting of a cell depends on its row (a lone empty field is written
    "").  Text pads its %.12g and fmt_human cells to the column widths,
    keys as the first row."""
    keys, cols = list(columns), list(columns.values())
    n_rows = len(cols[0]) if cols else 0
    floats = [set(map(type, col)) == {float} for col in cols]

    def row_order(cols: list[list]) -> tuple:
        """The cells of n_rows-long columns, row by row."""
        cells = [None] * (n_rows * len(cols))
        for i, col in enumerate(cols):
            cells[i::len(cols)] = col
        return tuple(cells)

    if fmt == "json":
        head = _json({"manifest": manifest._asdict(), "results": []}, indent=2)
        if not n_rows:
            return head + "\n"
        cell = json.JSONEncoder(allow_nan=False).encode
        specs, cols = zip(*[("%r", col) if is_float and _all_finite(col)
                            else ("%s", list(map(cell, map(_null_nonfinite, col))))
                            for col, is_float in zip(cols, floats)])
        row = "    {\n" + ",\n".join(f"      {json.dumps(k).replace('%', '%%')}: {spec}"
                                      for k, spec in zip(keys, specs)) + "\n    }"
        doc = "".join([head[:-4].replace("%", "%%"), "[\n",  # head ends '[]\n}'
                       ",\n".join([row] * n_rows), "\n  ]\n}\n"])
        return doc % row_order(cols)
    mjson = _json(manifest._asdict(), separators=(",", ":"), sort_keys=True)
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        buf.write(f"# manifest: {mjson}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        if all(floats):  # a float's %.17g never needs csv quoting
            row = ",".join(["%.17g"] * len(cols)) + "\n"
            buf.write(row * n_rows % row_order(cols))
        else:
            writer.writerows(zip(*(map(fmt_full, col) for col in cols)))
        return buf.getvalue()
    # text
    text = f"manifest: {mjson}\n"
    if not n_rows:
        return text
    cells = [list(map("%.12g".__mod__, col) if is_float else map(fmt_human, col))
             for col, is_float in zip(cols, floats)]
    widths = [max(len(k), max(map(len, c))) for k, c in zip(keys, cells)]
    row = "  ".join(f"%-{w}s" for w in widths) + "\n"  # the keys are its first row
    return ((text.replace("%", "%%") + row * (n_rows + 1))
            % (*keys, *row_order(cells)))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_number(text: str, what: str) -> float:
    """Plain float, or a rational like 7/32; finite, nonzero denominator.

    what names the option or argument the text came from, for the error.
    """
    head, sep, tail = text.partition("/")
    try:
        num, den = float(head), (float(tail) if sep else 1.0)
    except ValueError:
        raise DomainError(
            f"{what} must be a number or a ratio like 7/32; got {text!r}") from None
    if den == 0.0:
        raise DomainError(f"{what}: zero denominator in {text!r}")
    if not math.isfinite(value := num / den):
        raise DomainError(f"{what} {text!r} must be finite; got {value!r}")
    return value


def _scan_from_args(args: argparse.Namespace) -> ScanConfig:
    if args.command == "eval":  # which takes no scan option
        return DEFAULT_SCAN
    return ScanConfig(lo=_parse_number(args.lo, "--lo"),
                      hi=_parse_number(args.hi, "--hi"),
                      n=args.grid_n,
                      endpoint_offset=_parse_number(args.offset, "--offset"))


# fn name -> (required param names, module, function name); the function
# takes the params in that order, then x
_EVAL_FNS: dict[str, tuple[tuple[str, ...], object, str]] = {
    "K": ((), specfun, "ellip_k"),
    "E": ((), specfun, "ellip_e"),
    "2F1": (("a", "b", "c"), specfun, "hyp2f1"),
    "f": (("a",), family, "f"),
    "h": (("p",), family, "h"),
    "u": ((), family, "u_aux"),
    "v": ((), family, "v_aux"),
    "delta": ((), family, "delta_aux"),
    "w_plus": ((), family, "w_plus"),
    "w_minus": ((), family, "w_minus"),
    "phi": ((), family, "phi"),
    "G": ((), family, "g_aux"),
    "J": (("p",), family, "j_factor"),
    "L": (("p",), family, "l_factor"),
}


def _resolve_fn(name: str, params: dict[str, float]):
    """The function of x of zoo function name, which must take exactly params."""
    if name not in _EVAL_FNS:
        raise DomainError(
            f"unknown function {name!r}; choose from {', '.join(sorted(_EVAL_FNS))}")
    required, module, attr = _EVAL_FNS[name]
    for key in params:
        if key not in required:
            raise DomainError(f"function {name!r} takes no --param {key}")
    missing = [k for k in required if k not in params]
    if missing:
        raise DomainError(f"function {name!r} needs --param {missing[0]}=<value>")
    fn = getattr(module, attr)  # looked up per command, so that a patched attribute is called
    return functools.partial(fn, *(params[k] for k in required)) if required else fn


def _collect_params(args: argparse.Namespace) -> dict[str, object]:
    """fn and the --param pairs of an eval or table command, the pairs checked
    here as well as in the run step, so that no key can overwrite another
    manifest parameter."""
    params: dict[str, float] = {}
    for item in args.param or []:
        key, sep, val = item.partition("=")
        if not sep:
            raise DomainError(f"--param expects key=value; got {item!r}")
        key = key.strip()
        if key in params:
            raise DomainError(f"--param {key} is given more than once")
        params[key] = _parse_number(val, f"--param {key}")
    _resolve_fn(args.fn, params)
    return {"fn": args.fn, **params}


def _columns(keys: tuple[str, ...], rows: list[tuple]) -> dict[str, list]:
    """The few rows of a small run step, as its columns named keys."""
    return dict(zip(keys, map(list, zip(*rows))))


def _run_eval(cfg: ScanConfig, fn: str, x: list[float],
              **params: float) -> tuple[dict[str, list], int]:
    f = _resolve_fn(fn, params)
    values: list[float] = []
    try:
        values.extend(map(f, x[-1:]))  # first, so that a function failing there fails at once
        values.extend(map(f, x[:-1]))
    except (DomainError, ConvergenceError, OverflowError) as exc:
        # list.extend keeps what it appended, so x[len(values) - 1] is the failing point
        what = f"out of floating-point range: {exc}" if isinstance(exc, OverflowError) else exc
        raise DomainError(f"at x={x[len(values) - 1]!r}: {what}") from exc
    return {"x": x, "value": values[1:] + values[:1]}, EXIT_OK


def _run_constants(cfg: ScanConfig) -> tuple[dict[str, list], int]:
    res = find_a_c(cfg)
    if not family.A_RECIP_CONVEX < res.value < family.A_RECIP_CONCAVE:
        raise ValueError(f"a_c={res.value!r} must lie in (log 4, 8/5)")
    rows = [("a_c", res.value, "computed", res.x_star, res.tolerance)]
    rows += [(name, value, "algebraic", None, None) for name, value in (
        ("p_logconcave", family.P_LOGCONCAVE), ("p_convex_hi", family.P_CONVEX_HI),
        ("p_concave_lo", family.P_CONCAVE_LO), ("p_monotone", family.P_MONOTONE),
        ("a_recip_convex", family.A_RECIP_CONVEX), ("a_recip_concave", family.A_RECIP_CONCAVE),
        ("alpha_lemma", family.ALPHA_LEMMA))]
    rows += [("K_half", specfun.ellip_k(0.5), "computed", None, None),
             ("gamma_quarter", specfun.GAMMA_QUARTER, "embedded", None, None),
             ("gamma_three_quarter", specfun.GAMMA_THREE_QUARTER, "embedded", None, None)]
    return _columns(("name", "value", "provenance", "x_star", "tolerance"), rows), EXIT_OK


def _claim(theorem: str) -> tuple[str, str, str]:
    """(param symbol, name of the family factor, claimed sign) of a theorem id."""
    if theorem not in family.CLAIMS:
        raise DomainError(
            f"unknown theorem id {theorem!r}; choose from "
            f"{', '.join(sorted(family.CLAIMS))}")
    return family.CLAIMS[theorem][:3]


def _run_certify(cfg: ScanConfig, theorem: str, **params: float) -> tuple[dict[str, list], int]:
    symbol, factor, claimed = _claim(theorem)
    value = params[symbol]
    # looked up per command, so that a patched column form is called
    cert = certify_sign(functools.partial(family.COLUMN_FORMS[factor], value), claimed, cfg)
    keys = ("theorem", symbol, "claimed", "verdict", "min_abs_margin",
            "witness_x", "witness_value")
    row = (theorem, value, claimed, cert.verdict, cert.min_abs_margin,
           cert.witness_x, cert.witness_value)
    return _columns(keys, [row]), EXIT_OK if cert.verdict == claimed else EXIT_COUNTEREXAMPLE


_SCAN_OPTIONS = ("--grid-n", "--lo", "--hi", "--offset")
_VERIFY_OPTIONS = {  # verify selector -> the options its checks read, beside --format and --out
    "sum-bounds": (*_SCAN_OPTIONS, "--a"), "weighted-sum": (*_SCAN_OPTIONS, "--p"),
    "product-pair": (*_SCAN_OPTIONS, "--p"),
    "mean-chain": (*_SCAN_OPTIONS[1:], "--p", "--seed"),  # its interval's ends alone
    "k-envelope": (*_SCAN_OPTIONS, "--p"), "gamma-constants": (),  # a fixed grid
    "all": (*_SCAN_OPTIONS, "--a", "--p", "--seed")}


def _verify_params(args: argparse.Namespace) -> dict[str, object]:
    reads = _VERIFY_OPTIONS.get(args.selector, _VERIFY_OPTIONS["all"])  # unknown: see _run_verify
    for option in _VERIFY_OPTIONS["all"]:
        if option not in reads and option[2:].replace("-", "_") in args._given:
            raise DomainError(f"selector {args.selector!r} takes no {option}")
    return {"selector": args.selector, "a": _parse_number(args.a, "--a"),
            "p": None if args.p is None else _parse_number(args.p, "--p"), "seed": args.seed}


def _run_verify(cfg: ScanConfig, selector: str, a: float, p: float | None,
                seed: int) -> tuple[dict[str, list], int]:
    if selector not in _VERIFY_OPTIONS:
        raise DomainError(
            f"unknown selector {selector!r}; choose from {', '.join(_VERIFY_OPTIONS)}")
    from . import inequalities  # only verify pays for loading the checks

    # one grid with K(x) and K(1-x) for every grid check of this command;
    # the checks that pair r with 1 - r come first, so one AGM pass per
    # point gives both columns
    cols = inequalities.GridColumns(cfg)
    reports: list[inequalities.InequalityReport] = []
    if selector in ("sum-bounds", "all"):
        reports.append(inequalities.check_sum_bounds(a, cols))
    if selector in ("weighted-sum", "all"):
        for pw in (p,) if p is not None else (family.P_CONVEX_HI, 0.5):
            reports.append(inequalities.check_weighted_sum(pw, cols))
    if selector in ("product-pair", "all"):
        reports.append(inequalities.check_product_pair(
            p if p is not None else 0.5, cols))
    if selector in ("mean-chain", "all"):
        reports.append(inequalities.check_mean_chain_pairs(
            p if p is not None else 0.5, seed=seed, cfg=cfg))
    if selector in ("k-envelope", "all"):
        for pk in (p,) if p is not None else (family.P_MONOTONE, 0.1):
            reports.append(inequalities.check_k_envelope(pk, cols))
    if selector in ("gamma-constants", "all"):
        reports.append(inequalities.check_gamma_constant_identities())
    # each report's x_p row, where it has one, then one row per clause
    rows = []
    for rep in reports:
        if rep.x_p is not None:
            rows.append((rep.name, rep.param, "x_p", None, rep.verdict, rep.x_p, ""))
        points = ";".join(map(fmt_full, rep.equality_points))
        rows += [(rep.name, rep.param, clause, margin, rep.verdict,
                  rep.witness_x if rep.witness_clause == clause else None, points)
                 for clause, margin in rep.clause_margins.items()]
    keys = ("check", "param", "clause", "max_violation", "verdict", "witness_x",
            "equality_points")
    return (_columns(keys, rows),
            EXIT_OK if all(r.verdict == "pass" for r in reports) else EXIT_COUNTEREXAMPLE)


def _run_table(cfg: ScanConfig, fn: str, spacing: str,
               **params: float) -> tuple[dict[str, list], int]:
    xs = cfg.grid(spacing)
    _resolve_fn(fn, params)
    required, module, attr = _EVAL_FNS[fn]
    # a column form reads the grid in batches: it raises nothing on (0, 1)
    column = (family.COLUMN_FORMS.get(attr) if module is family
              else specfun.ellip_k_column if attr == "ellip_k" else None)
    if column is None:
        return _run_eval(cfg, fn, xs, **params)
    return {"x": xs, "value": in_batches(functools.partial(
        column, *(params[k] for k in required)), xs)}, EXIT_OK


# command -> (parse step: namespace -> manifest parameters, run step)
_COMMANDS = {
    "eval": (lambda args: {**_collect_params(args),
                           "x": [_parse_number(text, "eval point") for text in args.x]},
             _run_eval),
    "constants": (lambda args: {}, _run_constants),
    "certify": (lambda args: {"theorem": args.theorem,
                              _claim(args.theorem)[0]: _parse_number(args.value, "certify value")},
                _run_certify),
    "verify": (_verify_params, _run_verify),
    "table": (lambda args: {**_collect_params(args), "spacing": args.spacing}, _run_table),
}


class _Once(argparse.Action):
    """Stores an argument that may be given once, its dest in namespace._given."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    """Takes an option by its full name only and, --param aside, at most
    once, here and in every subparser, and reads every number _parse_number
    accepts (-1e-05, -inf, -1/20) as a value; argparse alone takes only -5,
    -.5 and -0.5 for one, not an option."""

    def __init__(self, *args, **kwargs):
        self._width = shutil.get_terminal_size().columns - 2  # argparse's help width
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self.register("action", None, _Once)  # the default action

    def _get_formatter(self):  # which add_argument calls: one terminal-size read per parser
        return self.formatter_class(prog=self.prog, width=self._width)

    def _parse_optional(self, arg_string):
        try:
            list(map(float, arg_string.split("/", 1)))
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given a command of _COMMANDS, the
    top-level parser with that command's subparser alone, as main builds it
    for a command argv; the full parser serves top-level help and usage
    errors.  Both print the same top-level usage line."""
    def read_by(option):  # the verify selectors that read option, for its help
        return ", ".join(s for s, options in _VERIFY_OPTIONS.items() if option in options)

    def output(p):  # every command
        p.add_argument("--format", choices=_FORMATS, default="text",
                       help="output format (default %(default)s)")
        p.add_argument("--out", default=None, help="write output to this path")
    def grid(p):  # every command but eval
        p.add_argument("--grid-n", type=int, default=DEFAULT_SCAN.n,
                       help=f"grid size (default %(default)s; verify: {read_by('--grid-n')})")
        p.add_argument("--lo", default=repr(DEFAULT_SCAN.lo), help="scan interval start")
        p.add_argument("--hi", default=repr(DEFAULT_SCAN.hi), help="scan interval end")
        p.add_argument("--offset", default=repr(DEFAULT_SCAN.endpoint_offset),
                       help="distance kept from the interval ends")
    def zoo(p):  # eval and table: fn before their own
        p.add_argument("fn", help=f"one of: {', '.join(_EVAL_FNS)}")
        p.add_argument("--param", action="append", metavar="k=v",
                       help="function parameter, e.g. a=1.47 or p=7/32")

    def p_cert(p):
        p.add_argument("theorem", help=f"one of: {', '.join(family.CLAIMS)}")
        p.add_argument("value", help="parameter value (float or fraction like 7/32)")
    def p_ver(p):
        p.add_argument("selector", help=f"one of: {', '.join(_VERIFY_OPTIONS)}")
        p.add_argument("--a", default="1.47", help=f"log-shift parameter of {read_by('--a')}")
        p.add_argument("--p", default=None, help=f"power parameter of {read_by('--p')}")
        p.add_argument("--seed", type=int, default=0, help="seed of the random pairs of "
                       f"{read_by('--seed')} (default %(default)s)")

    parser = _Parser(
        prog="ellipcert",
        description="Elliptic-integral convexity toolkit: evaluation, "
                    "sharp constants, sign certification, inequality grids.")
    # a one-command build names every command in the usage line an unrecognized argument prints
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else f"{{{','.join(_COMMANDS)}}}")
    for name, help, *adds in (
            ("eval", "evaluate a zoo function at given points", output, zoo, lambda p:
             p.add_argument("x", nargs="+", help="evaluation points (float or fraction)")),
            ("constants", "print the sharp constants with provenance", output, grid),
            ("certify", "sign-certify one convexity statement", output, grid, p_cert),
            ("verify", "run inequality grid checks", output, grid, p_ver),
            ("table", "emit an x,value table for external plotting", output, grid, zoo,
             lambda p: p.add_argument("--spacing", choices=SPACINGS, default="uniform"))):
        if command in (None, name):
            subparser = sub.add_parser(name, help=help)
            for add in adds:
                add(subparser)
    return parser


def _run(m: RunManifest) -> tuple[str, int]:
    """The output text and exit code of manifest m: its run step, rendered."""
    columns, code = _COMMANDS[m.command][1](m.scan, **m.parameters)
    return _render(columns, m, m.output_format), code


def run_from_manifest(manifest: dict[str, object]) -> str:
    """Re-run a manifest dict, as parsed from any output, and return the
    rendered output text: what main wrote for it."""
    return _run(RunManifest(**{**manifest, "scan": ScanConfig(**manifest["scan"])}))[0]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command argv needs its command's parser alone; any other, every command's
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        params = _COMMANDS[args.command][0](args)  # before the scan, for its error
        text, code = _run(RunManifest(args.command, params, _scan_from_args(args),
                                      args.format))
    except (ConvergenceError, ValueError) as exc:  # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OverflowError, MemoryError) as exc:  # a power too large for a double, a huge grid
        what = "memory" if isinstance(exc, MemoryError) else f"floating-point range: {exc}"
        print(f"error: out of {what}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveScanError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    try:
        _emit(text, args.out)
    except OSError as exc:  # --out names a missing directory, a directory, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
