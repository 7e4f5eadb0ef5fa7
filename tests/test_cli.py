"""Command-line contract tests: subcommands, formats, exit codes,
manifest embedding and byte reproducibility."""

import argparse
import csv
import hashlib
import json
import math
import time

import pytest

import oracles
import ellipcert
from ellipcert import cli, family, specfun
from ellipcert.certify import ScanConfig
from ellipcert.specfun import DomainError

FAST = ["--grid-n", "2000"]

# command -> the run-setting options it takes: those that its run step reads
OPTIONS = {
    "eval": ("--format", "--out"),
    "constants": ("--format", "--out", "--grid-n", "--lo", "--hi", "--offset"),
    "certify": ("--format", "--out", "--grid-n", "--lo", "--hi", "--offset"),
    "verify": ("--format", "--out", "--grid-n", "--lo", "--hi", "--offset", "--seed"),
    "table": ("--format", "--out", "--grid-n", "--lo", "--hi", "--offset"),
}
SETTING_OPTIONS = sorted(set().union(*OPTIONS.values()))


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def fast(argv):
    """argv on the FAST grid, where its command, or its verify selector, reads --grid-n."""
    reads = cli._VERIFY_OPTIONS[argv[1]] if argv[0] == "verify" else OPTIONS[argv[0]]
    return argv + FAST if "--grid-n" in reads else argv


def manifest_of(out, fmt):
    """The manifest dict that a run's output embeds."""
    if fmt == "json":
        return json.loads(out)["manifest"]
    return json.loads(out.splitlines()[0].partition("manifest: ")[2])


# a valid argv of each command, verify with the selector that reads every
# option, and for each option of a run setting or verify parameter but --out
# a value other than its default with the key and value that record it in the
# manifest, its scan or its parameters
BASE = {"eval": ["eval", "K", "0.5"], "constants": ["constants"],
        "certify": ["certify", "thm1-convex", "1.5"], "verify": ["verify", "all"],
        "table": ["table", "K"]}
VALUES = {"--grid-n": ("7", "n", 7), "--lo": ("1/4", "lo", 0.25),
          "--hi": ("0.75", "hi", 0.75), "--offset": ("1e-6", "endpoint_offset", 1e-6),
          "--seed": ("5", "seed", 5), "--a": ("1.5", "a", 1.5), "--p": ("0.5", "p", 0.5),
          "--format": ("csv", "output_format", "csv")}

# command -> every long option it declares, --help aside, and a value each takes
DECLARED = {command: options + {"eval": ("--param",), "verify": ("--a", "--p"),
                                "table": ("--param", "--spacing")}.get(command, ())
            for command, options in OPTIONS.items()}
OPTION_VALUES = {**{option: text for option, (text, _, _) in VALUES.items()},
                 "--out": "out.txt", "--param": "p=1", "--spacing": "geometric"}
# (command, prefix) -> an option it begins, for each proper prefix of a
# declared option from "--" and one letter on; none is an option itself
PREFIXES = {(command, option[:k]): option for command, options in DECLARED.items()
            for option in options for k in range(3, len(option))}


# (verify selector, option) for every option verify takes: the selector takes
# the option where its checks read it, and --format and --out always
VERIFY_PAIRS = [(selector, option) for selector in cli._VERIFY_OPTIONS
                for option in (*OPTIONS["verify"], "--a", "--p")]

# options that no command takes any more, with a value each once took
REMOVED = {"--refine": "3"}

# an argv of each command with an option it does not take: argparse's usage error
UNTAKEN_ARGVS = [
    *(BASE[command] + [option, VALUES[option][0]] for command in OPTIONS
      for option in SETTING_OPTIONS if option not in OPTIONS[command]),
    *(BASE[command] + [option, value] for command in OPTIONS
      for option, value in REMOVED.items()),
    # each of these once ran, exit 0, and recorded the ignored value
    ["eval", "K", "0.5", "--grid-n", "7", "--lo", "0.3"],
    ["table", "K", "--grid-n", "5", "--refine", "4"],
    ["certify", "thm1-convex", "1.5", "--grid-n", "200", "--seed", "9"],
    ["verify", "sum-bounds", "--refine", "0"],
    ["constants", "--refine", "7", "--seed", "3"],
]

# an argv of each command with a prefix of an option it declares, as a name:
# argparse's usage error
PREFIX_ARGVS = [
    *(BASE[command] + [prefix, OPTION_VALUES[option]]
      for (command, prefix), option in PREFIXES.items()),
    *(BASE[command] + [f"{prefix}={OPTION_VALUES[option]}"]
      for (command, prefix), option in PREFIXES.items()),
    # each of these once ran, exit 0: the first wrote x.txt
    ["eval", "K", "0.5", "--o", "x.txt"],
    ["verify", "sum-bounds", "--se", "3"],
    ["table", "K", "--p=1"],
]


class TestOptionContract:
    """Each command takes only the run-setting options of OPTIONS; every
    other one is argparse's usage error, and a setting a command has no
    option for keeps its default in the manifest.  A verify selector takes
    only the options of cli._VERIFY_OPTIONS beside --format and --out; verify's
    parse step refuses any other, and the manifest keeps its default."""

    @pytest.mark.parametrize("argv", UNTAKEN_ARGVS, ids=" ".join)
    def test_option_the_command_does_not_take(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        rejected = [f"{opt} {value}" for opt, value in zip(argv, argv[1:])
                    if opt in REMOVED or opt in SETTING_OPTIONS and opt not in OPTIONS[argv[0]]]
        assert err.endswith(f"error: unrecognized arguments: {' '.join(rejected)}\n")

    @pytest.mark.parametrize("command", OPTIONS)
    def test_every_option_reaches_the_manifest(self, capsys, tmp_path, command):
        target = tmp_path / "out.txt"  # --out writes the whole output there
        argv = BASE[command] + ["--out", str(target)]
        expected = {"command": command, **cli.DEFAULT_SCAN._asdict()}
        for option in OPTIONS[command]:
            if option != "--out":
                text, key, value = VALUES[option]
                argv += [option, text]
                expected[key] = value
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (0, "", "")
        manifest = manifest_of(target.read_text(), "csv")
        settings = {**manifest, **manifest["scan"], **manifest["parameters"]}
        assert {k: settings[k] for k in expected} == expected

    def test_verify_selectors_take_46_of_63_pairs(self):
        taken = [(selector, option) for selector, option in VERIFY_PAIRS
                 if option in (*cli._VERIFY_OPTIONS[selector], "--format", "--out")]
        assert (len(taken), len(VERIFY_PAIRS)) == (46, 63)

    @pytest.mark.parametrize("selector, option", VERIFY_PAIRS,
                             ids=[" ".join(pair) for pair in VERIFY_PAIRS])
    def test_verify_selector_takes_the_options_it_reads(self, capsys, tmp_path, selector,
                                                          option):
        target = tmp_path / "out.txt"  # --out writes the whole output there
        text = str(target) if option == "--out" else VALUES[option][0]
        code, out, err = run(capsys, ["verify", selector, option, text])
        if option not in (*cli._VERIFY_OPTIONS[selector], "--format", "--out"):
            assert (code, out) == (2, "")
            assert err == f"error: selector {selector!r} takes no {option}\n"
            return
        assert (code, err) == (0, "")
        # the given value, and every other setting at its default
        expected = {"command": "verify", "output_format": "text", **cli.DEFAULT_SCAN._asdict(),
                    "selector": selector, "a": 1.47, "p": None, "seed": 0}
        if option != "--out":
            _, key, value = VALUES[option]
            expected[key] = value
        written = target.read_text() if option == "--out" else out
        manifest = manifest_of(written, expected["output_format"])
        settings = {**manifest, **manifest["scan"], **manifest["parameters"]}
        assert {k: settings[k] for k in expected} == expected
        assert cli.run_from_manifest(manifest) == written

    @pytest.mark.parametrize("argv, option", [
        # each of these once ran, exit 0, and recorded the option it ignored
        (["verify", "mean-chain", "--grid-n", "3"], "--grid-n"),
        (["verify", "gamma-constants", "--a", "9", "--p", "7"], "--a"),
        (["verify", "gamma-constants", "--lo", "0.9", "--grid-n", "2"], "--grid-n"),
        (["verify", "sum-bounds", "--p", "0.3", "--seed", "4"], "--p"),
        (["verify", "mean-chain", "--grid-n", "3", "--p", "0.5"], "--grid-n"),
        # refused before any value is read
        (["verify", "gamma-constants", "--p", "x", "--offset", "1e-300"], "--offset"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_verify_option_the_selector_does_not_read(self, capsys, argv, option):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: selector {argv[1]!r} takes no {option}\n"

    # text outputs of once-ignored argvs, from when every command took all
    # eight options (and every verify selector all nine) and recorded the ones
    # it ignored: the manifest line as written, in the layout of the manifest
    # now, and the sha256 of the whole output
    @pytest.mark.parametrize("manifest, digest", [
        ('{"command":"eval","output_format":"text","parameters":{"fn":"K","x":[0.5]},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.3,"n":7}}',
         "0912f9c9b3937454af40d75e1b4d1eb24ad06d5b74b7f2acff9597a80939cacc"),
        ('{"command":"table","output_format":"text","parameters":{"fn":"K","spacing":"uniform"},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.0,"n":5}}',
         "a4cafc38de53a5e58a0e6d345aae475ebd2d5347cb401756eda22199a9feece5"),
        ('{"command":"certify","output_format":"text",'
         '"parameters":{"a":1.5,"theorem":"thm1-convex"},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.0,"n":200}}',
         "df12daa8fb7ba4077ed4cf7541b0c5b2d2f0b1b12ac7d66b8564c82c6e20a23a"),
        # verify gamma-constants --lo 0.9 --grid-n 2
        ('{"command":"verify","output_format":"text",'
         '"parameters":{"a":1.47,"p":null,"seed":0,"selector":"gamma-constants"},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.9,"n":2}}',
         "056c005db7bf251ee81425384083e2d9efe339d690cf2a20b407277e26b1595b"),
        # verify sum-bounds --p 0.3 --seed 4 --grid-n 50
        ('{"command":"verify","output_format":"text",'
         '"parameters":{"a":1.47,"p":0.3,"seed":4,"selector":"sum-bounds"},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.0,"n":50}}',
         "eef010257b549e1d68d6aa570144804eecd05c1bc9c181e28753a997f603bc07"),
        # verify mean-chain --grid-n 3
        ('{"command":"verify","output_format":"text",'
         '"parameters":{"a":1.47,"p":null,"seed":0,"selector":"mean-chain"},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.0,"n":3}}',
         "d3f12e23caab23c759d7df440672a5e64254ea966b72c48ac538f678352e8e5f"),
    ], ids=["eval", "table", "certify", "verify-gamma-constants", "verify-sum-bounds",
            "verify-mean-chain"])
    def test_manifest_with_a_setting_no_option_sets_replays(self, manifest, digest):
        out = cli.run_from_manifest(json.loads(manifest))
        assert out.startswith(f"manifest: {manifest}\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # manifests as written before the refine depth became a constant and the
    # seed a parameter of verify alone: a scan with refine_depth, a top-level seed
    @pytest.mark.parametrize("manifest, key", [
        ('{"command":"certify","output_format":"text",'
         '"parameters":{"a":1.5,"theorem":"thm1-convex"},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.0,"n":200,"refine_depth":2},"seed":9}',
         "refine_depth"),
        ('{"command":"verify","output_format":"csv",'
         '"parameters":{"a":1.47,"p":null,"selector":"sum-bounds"},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.0,"n":50,"refine_depth":2},"seed":0}',
         "refine_depth"),
        # with the refine depth alone taken out
        ('{"command":"constants","output_format":"json","parameters":{},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.0,"n":50},"seed":0}', "seed"),
        ('{"command":"verify","output_format":"csv",'
         '"parameters":{"a":1.47,"p":null,"selector":"sum-bounds"},'
         '"scan":{"endpoint_offset":1e-09,"hi":1.0,"lo":0.0,"n":50},"seed":0}', "seed"),
    ], ids=["certify", "verify", "constants-seed", "verify-seed"])
    def test_manifest_in_the_old_layout_is_rejected(self, manifest, key):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{key}'$"):
            cli.run_from_manifest(json.loads(manifest))


class TestFullOptionNames:
    """Each command takes its options by their full names only, with the value
    as the next argument or after "="; any prefix is argparse's usage error,
    so the 32 declared names are the only spellings."""

    @pytest.mark.parametrize("command", DECLARED)
    def test_declared_options_are_the_parsers(self, command):
        subparsers = cli.build_parser()._subparsers._group_actions[0]
        declared = {name for action in subparsers.choices[command]._actions
                    for name in action.option_strings if name.startswith("--")}
        assert declared - {"--help"} == set(DECLARED[command])

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, options in DECLARED.items() for option in options])
    def test_full_name_is_accepted(self, command, option):
        parser, value = cli.build_parser(), OPTION_VALUES[option]
        args = parser.parse_args(BASE[command] + [option, value])
        assert args == parser.parse_args(BASE[command] + [f"{option}={value}"])
        assert args != parser.parse_args(BASE[command])

    @pytest.mark.parametrize("argv", PREFIX_ARGVS, ids=" ".join)
    def test_prefix_is_usage_error(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "error: unrecognized arguments: " in err
        assert list(tmp_path.iterdir()) == []

    def test_every_bench_argv_parses(self, bench_cases):
        # an argv the parser or its command's parse step refused would fail
        # its benchmark case
        parser = cli.build_parser()
        for workload in ("certify", "verify", "table"):
            for seed in range(1, 6):
                argvs = [list(case.argv) for case in bench_cases.build(workload, seed)]
                assert argvs
                for argv in argvs:
                    args = parser.parse_args(argv)
                    assert args.command == argv[0]
                    cli._COMMANDS[argv[0]][0](args)  # and its parse step takes it


class TestRepeatedOption:
    """Each option but --param is taken once: a second one, with the same
    value or another, is argparse's usage error, which names it."""

    CASES = [
        *((BASE[command] + [option, OPTION_VALUES[option], f"{option}={OPTION_VALUES[option]}"],
           option) for command, options in DECLARED.items() for option in options
          if option != "--param"),
        # each of these once ran, exit 0, on the last value
        (["table", "K", "--grid-n", "5", "--grid-n", "3", "--format", "csv"], "--grid-n"),
        (["verify", "mean-chain", "--seed", "1", "--p", "0.5", "--seed", "2"], "--seed"),
        (["eval", "K", "0.5", "--out", "a.txt", "--out", "b.txt"], "--out"),
    ]

    @pytest.mark.parametrize("argv, option", CASES, ids=[" ".join(argv) for argv, _ in CASES])
    def test_second_value_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, option):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"error: argument {option}: given more than once\n")
        assert list(tmp_path.iterdir()) == []

    def test_param_repeats_with_its_keys_once(self, capsys):
        code, out, _ = run(capsys, ["eval", "2F1", "--param", "a=0.5", "--param", "b=0.5",
                                    "--param", "c=1", "0.5", "--format", "json"])
        assert code == 0
        assert manifest_of(out, "json")["parameters"] == {
            "fn": "2F1", "a": 0.5, "b": 0.5, "c": 1.0, "x": [0.5]}


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of cli.main(argv); a usage error or help
    exits through SystemExit, whose code it is."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOneCommandParser:
    """main builds the top-level parser with the invoked command's subparser
    alone (build_parser(command)), and the full parser for any other argv; a
    command argv reads and prints the same through either build."""

    # argvs whose output comes from argparse: help, and usage errors of the
    # top level and of each command
    HELP_ARGVS = [[], ["-h"], ["--help"], ["bogus"], ["--format", "json"],
                  *([command, "-h"] for command in BASE), *([command] for command in BASE),
                  ["certify", "thm1-convex", "1.5", "--bogus"]]
    # argvs of the exit-code tests: TestExitCodeContract and TestFloatRange
    EXIT_CODE_ARGVS = [["verify", "mean-chain", "--p", "1e300"],
                       ["verify", "mean-chain", "--p", "35", "--lo", "0.99999999"],
                       ["verify", "weighted-sum", "--p", "2000"],
                       ["verify", "product-pair", "--p", "2000"],
                       ["verify", "k-envelope", "--p", "2000"],
                       ["eval", "h", "--param", "p=-400", "0.999999"],
                       ["table", "h", "--param", "p=-400", "--grid-n", "5"]]

    @staticmethod
    def actions(parser, command):
        subparser = parser._subparsers._group_actions[0].choices[command]
        return subparser.format_help(), [
            (a.option_strings, a.dest, a.default, a.type, a.choices, a.nargs, a.help,
             a.metavar, type(a)) for a in subparser._actions]

    @pytest.mark.parametrize("command", BASE)
    def test_subparser_declares_the_full_builds_actions(self, command):
        one = cli.build_parser(command)
        assert list(one._subparsers._group_actions[0].choices) == [command]
        assert self.actions(one, command) == self.actions(cli.build_parser(), command)

    def same_through_both_builds(self, capsys, monkeypatch, argvs):
        one = [outcome(capsys, argv) for argv in argvs]
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert [outcome(capsys, argv) for argv in argvs] == one
        return one

    # terminal width -> argparse's top-level usage line, which it wraps to the width
    USAGE = {"80": "usage: ellipcert [-h] {eval,constants,certify,verify,table} ...\n",
             "40": "usage: ellipcert [-h]\n                 "
                   "{eval,constants,certify,verify,table}\n                 ...\n"}

    @pytest.mark.parametrize("columns", USAGE)
    def test_help_and_usage_errors_print_the_same(self, capsys, monkeypatch, tmp_path,
                                                   columns):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", columns)
        argvs = [*self.HELP_ARGVS, *UNTAKEN_ARGVS, *PREFIX_ARGVS,
                 *(argv for argv, _ in TestRepeatedOption.CASES), *self.EXIT_CODE_ARGVS]
        got = dict(zip(map(tuple, argvs), self.same_through_both_builds(capsys, monkeypatch,
                                                                        argvs)))
        assert got["certify", "thm1-convex", "1.5", "--bogus"] == (
            2, "", self.USAGE[columns] + "ellipcert: error: unrecognized arguments: --bogus\n")
        assert list(tmp_path.iterdir()) == []

    def test_every_bench_argv_runs_the_same(self, capsys, monkeypatch, tmp_path, bench_cases):
        # the run step's only input is its manifest, so a stub that prints the
        # manifest stands for it; the golden and bench digests pin the outputs
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_run", lambda m: (repr(m) + "\n", cli.EXIT_OK))
        argvs = [case.argv for workload in ("certify", "verify", "table")
                 for seed in range(1, 6) for case in bench_cases.build(workload, seed)]
        self.same_through_both_builds(capsys, monkeypatch, argvs)

    # argv -> the subparsers main builds for it
    BUILT = [*((BASE[command], [command]) for command in BASE),
             *((argv, list(cli._COMMANDS)) for argv in ([], ["-h"], ["bogus"]))]

    @pytest.mark.parametrize("argv, built", BUILT,
                             ids=[" ".join(argv) or "no-argument" for argv, _ in BUILT])
    def test_parsers_built(self, capsys, monkeypatch, argv, built):
        names, parsers = [], []
        add_parser, init = argparse._SubParsersAction.add_parser, argparse.ArgumentParser.__init__

        def spy_add_parser(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)

        def spy_init(self, *args, **kwargs):
            parsers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy_add_parser)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy_init)
        monkeypatch.setattr(cli, "_run", lambda m: ("", cli.EXIT_OK))
        outcome(capsys, argv)
        assert names == built
        assert len(parsers) == 1 + len(built)  # the top level's and the subparsers

class TestEval:
    def test_k_half(self, capsys):
        code, out, _ = run(capsys, ["eval", "K", "0.5", "--format", "csv"])
        assert code == 0
        assert "1.8540746773013717" in out
        assert out.startswith("# manifest: ")

    def test_phi_near_zero(self, capsys):
        code, out, _ = run(capsys, ["eval", "phi", "1e-9", "--format", "csv"])
        assert code == 0
        val = float(out.strip().splitlines()[-1].split(",")[1])
        assert abs(val - 1.6) <= 1e-7

    def test_w_plus_near_zero(self, capsys):
        code, out, _ = run(capsys, ["eval", "w_plus", "1e-9", "--format", "csv"])
        assert code == 0
        val = float(out.strip().splitlines()[-1].split(",")[1])
        # the sqrt-cusp keeps it 1.2e-5 above the 4/3 limit at 1e-9
        assert abs(val - 4.0 / 3.0) <= 2e-5

    def test_parametrized_functions(self, capsys):
        code, out, _ = run(capsys, ["eval", "f", "--param", "a=1.47", "0.5",
                                    "--format", "csv"])
        assert code == 0
        code, out, _ = run(capsys, ["eval", "2F1", "--param", "a=0.5",
                                    "--param", "b=0.5", "--param", "c=1",
                                    "0.25", "--format", "csv"])
        assert code == 0

    def test_unknown_function_usage_error(self, capsys):
        code, _, err = run(capsys, ["eval", "Q", "0.5"])
        assert code == 2
        assert "unknown function" in err

    def test_missing_param_usage_error(self, capsys):
        code, _, err = run(capsys, ["eval", "f", "0.5"])
        assert code == 2
        assert "needs --param" in err

    @pytest.mark.parametrize("argv, message", [
        (["eval", "K", "--param", "fn=2", "0.5"], "function 'K' takes no --param fn"),
        (["table", "K", "--param", "x=3"], "function 'K' takes no --param x"),
        (["eval", "h", "--param", "p=1/2", "--param", "x=9", "0.5"],
         "function 'h' takes no --param x"),
        (["eval", "K", "--param", "p", "0.5"], "--param expects key=value; got 'p'"),
        # the first of these once printed h at p = 2
        (["eval", "h", "--param", "p=1", "--param", "p=2", "0.5"],
         "--param p is given more than once"),
        (["eval", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=1",
          "--param", "b =0.25", "0.5"], "--param b is given more than once"),
        (["table", "J", "--param", "p=1/2", "--param", "p=1/2"],
         "--param p is given more than once"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_param_the_function_does_not_take(self, capsys, argv, message):
        code, out, err = run(capsys, fast(argv))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_domain_error_reports_x(self, capsys):
        code, _, err = run(capsys, ["eval", "K", "1.5"])
        assert code == 2
        assert "1.5" in err

    @pytest.mark.parametrize("argv, message", [
        (["eval", "h", "--param", "p=-400", "0.999999"],
         "at x=0.999999: out of floating-point range: (34, 'Numerical result out of range')"),
        # the last point is evaluated first, so of several failing points it is reported
        (["eval", "f", "--param", "a=-1", "1e-9", "0.5", "1e-8"],
         "at x=1e-08: f denominator a - log(1-x)/2 = -0.999999995 is not positive at x=1e-08"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_error_names_its_point(self, capsys, argv, message):
        assert run(capsys, argv) == (2, "", f"error: {message}\n")


class TestConstants:
    def test_rows_and_provenance(self, capsys):
        code, out, _ = run(capsys, ["constants", "--format", "json", *FAST])
        assert code == 0
        doc = json.loads(out)
        rows = {r["name"]: r for r in doc["results"]}
        assert rows["a_c"]["provenance"] == "computed"
        assert abs(rows["a_c"]["value"] - 1.46156929504) <= 5e-9
        assert rows["a_c"]["x_star"] is not None
        assert rows["a_c"]["tolerance"] <= 1e-10
        assert rows["p_convex_hi"]["value"] == pytest.approx(1.280330085889911,
                                                             rel=1e-12)
        assert rows["a_recip_convex"]["value"] == pytest.approx(math.log(4.0),
                                                                rel=1e-15)
        assert rows["gamma_quarter"]["provenance"] == "embedded"
        assert rows["K_half"]["provenance"] == "computed"


class TestCertify:
    def test_logconcave_boundary_verified(self, capsys):
        code, out, _ = run(capsys, ["certify", "thm3-logconcave", "7/32", *FAST])
        assert code == 0
        assert "nonnegative" in out

    def test_logconcave_below_boundary_witness(self, capsys):
        code, out, _ = run(capsys, ["certify", "thm3-logconcave", "0.21",
                                    "--format", "json", *FAST])
        assert code == 1
        doc = json.loads(out)
        row = doc["results"][0]
        assert row["verdict"] == "mixed"
        # G(0+) = -7/32 < -0.21, so the witness sits near 0
        assert row["witness_x"] < 0.05

    def test_recip_convex_at_log4(self, capsys):
        code, _, _ = run(capsys, ["certify", "thm2-convex",
                                  "1.3862943611198906", *FAST])
        assert code == 0

    def test_unknown_theorem(self, capsys):
        code, _, err = run(capsys, ["certify", "thm9-magic", "1.0"])
        assert code == 2
        assert "unknown theorem" in err


class TestVerify:
    def test_sum_bounds_pass(self, capsys):
        code, out, _ = run(capsys, ["verify", "sum-bounds", "--a", "1.47", *FAST])
        assert code == 0
        assert "pass" in out

    def test_sum_bounds_negative_control(self, capsys):
        code, out, _ = run(capsys, ["verify", "sum-bounds", "--a", "1.3",
                                    "--format", "json", *FAST])
        assert code == 1
        doc = json.loads(out)
        assert any(r["verdict"] == "fail" and r["witness_x"] is not None
                   for r in doc["results"])

    def test_k_envelope_prints_xp(self, capsys):
        code, out, _ = run(capsys, ["verify", "k-envelope", "--p", "0.1",
                                    "--format", "json", *FAST])
        assert code == 0
        doc = json.loads(out)
        xp_rows = [r for r in doc["results"] if r["clause"] == "x_p"]
        assert len(xp_rows) == 1
        assert xp_rows[0]["witness_x"] == pytest.approx(0.99926310069907, abs=1e-8)

    def test_unknown_selector(self, capsys):
        code, _, err = run(capsys, ["verify", "everything"])
        assert code == 2
        assert "unknown selector" in err

    def test_verify_all_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "all", *FAST])
        assert code == 0
        assert "fail" not in out


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ["certify", "thm1-convex", "nan"],
        ["certify", "thm1-convex", "inf"],
        ["certify", "thm3-logconcave", "1/0"],
        ["verify", "sum-bounds", "--a", "nan"],
        ["verify", "k-envelope", "--p", "inf"],
        ["eval", "h", "--param", "p=nan", "0.5"],
        ["verify", "sum-bounds", "--a", "1/0"],
        ["eval", "K", "nan"],
        ["table", "K", "--offset", "1/0"],
        ["table", "K", "--hi", "nan"],
    ], ids=" ".join)
    def test_usage_error_not_verdict(self, capsys, argv):
        code, out, err = run(capsys, fast(argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestFractions:
    """Every number the CLI takes may be written as a fraction."""

    def test_eval_point(self, capsys):
        _, quarter, _ = run(capsys, ["eval", "K", "1/4"])
        assert quarter == run(capsys, ["eval", "K", "0.25"])[1]

    def test_scan_bound(self, capsys):
        _, quarter, _ = run(capsys, ["table", "K", "--grid-n", "5", "--lo", "1/4"])
        assert quarter == run(capsys, ["table", "K", "--grid-n", "5", "--lo", "0.25"])[1]

    def test_verify_parameter(self, capsys):
        code, _, err = run(capsys, ["verify", "k-envelope", "--p", "1/4"] + FAST)
        assert code == 0, err


    @pytest.mark.parametrize("argv, what", [
        (["table", "K", "--lo", "abc"], "--lo"),
        (["table", "K", "--hi", "1/x"], "--hi"),
        (["table", "K", "--offset", "x"], "--offset"),
        (["eval", "h", "--param", "p=x", "0.5"], "--param p"),
        (["eval", "K", "0.5", "abc"], "eval point"),
        (["certify", "thm1-convex", "abc"], "certify value"),
        (["verify", "sum-bounds", "--a", "1/x"], "--a"),
        (["verify", "k-envelope", "--p", "1/2/3"], "--p"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_bad_number_names_its_source(self, capsys, argv, what):
        code, out, err = run(capsys, fast(argv))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {what} ") and err.count("\n") == 1


class TestNegativeValues:
    """A negative number in any form reaches its command, not the option parser."""

    @pytest.mark.parametrize("argv, code, message", [
        (["certify", "thm3-logconvex", "-1/20"], 0, ""),
        (["eval", "K", "-1e-05"], 2, "ellip_k requires 0 <= x < 1"),
        (["certify", "thm1-convex", "-inf"], 2, "must be finite"),
        (["verify", "sum-bounds", "--a", "-1e-3"], 2, "sum bounds need a > 0"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_reaches_handler(self, capsys, argv, code, message):
        got, _, err = run(capsys, fast(argv))
        assert got == code
        assert message in err


class TestFloatRange:
    def test_infinite_margin_is_inconclusive(self, capsys):
        # the upper bound 1 + pi/(2a) overflows to inf, so its margin is -inf
        code, out, err = run(capsys, ["verify", "sum-bounds", "--a", "1e-320",
                                      "--format", "json"] + FAST)
        assert code == 3
        assert out == ""
        assert err.startswith("inconclusive: ")

    @pytest.mark.parametrize("argv", [
        ["verify", "weighted-sum", "--p", "2000"],
        ["verify", "product-pair", "--p", "2000"],
        ["verify", "k-envelope", "--p", "2000"],
        ["eval", "h", "--param", "p=-400", "0.999999"],
        ["table", "h", "--param", "p=-400", "--grid-n", "5"],
    ], ids=" ".join)
    def test_overflow_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_hyp2f1_parameters_are_usage_error(self, capsys):
        # a + b overflows: the series stops at its first non-finite partial
        # sum, not in the test of its term cap
        code, out, err = run(capsys, ["eval", "2F1", "--param", "a=1e308", "--param",
                                      "b=1e308", "--param", "c=1", "0.5"])
        assert (code, out) == (2, "")
        assert err == ("error: at x=0.5: 2F1(1e+308, 1e+308; 1.0; 0.5): "
                       "non-finite partial sum inf after 1 terms\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "sum-bounds", "--a", "0"],
        ["verify", "weighted-sum", "--p", "-2000"],
    ], ids=" ".join)
    def test_parameter_outside_claim_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv + FAST)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("p", ["0.02", "0.03", "0.04"])
    def test_k_envelope_small_p(self, capsys, p):
        code, out, err = run(capsys, ["verify", "k-envelope", "--p", p,
                                      "--format", "json"] + FAST)
        assert code == 0, err
        rows = json.loads(out)["results"]
        assert rows[0]["clause"] == "x_p" and rows[0]["witness_x"] > 1.0 - 1e-9

    def test_k_envelope_without_x_p_is_inconclusive(self, capsys):
        # a valid p whose turning point lies below the ladder's first point
        code, out, err = run(capsys, ["verify", "k-envelope", "--p", "0.24999999999"] + FAST)
        assert (code, out) == (3, "")
        assert err == ("inconclusive: l_factor(p=0.24999999999, .) is already non-positive "
                       "at 1e-09: x_p lies below it\n")

    @pytest.mark.parametrize("argv", [["k-envelope", "--p", "0.1"], ["all"]], ids=" ".join)
    def test_k_envelope_without_scan_point_below_x_p_is_inconclusive(self, capsys, argv):
        # lo = 0.9995 lies above x_p(0.1) = 0.99926...: the message names
        # x_p, not an hi that the user did not give
        code, out, err = run(capsys, ["verify", *argv, "--lo", "0.9995"] + FAST)
        assert (code, out) == (3, "")
        assert err == ("inconclusive: k-envelope: for p=0.1 no scan point lies below "
                       "x_p=0.9992631006990728\n")

    @pytest.mark.parametrize("argv", [
        # an offset below the smallest normal double overflows a tail ratio
        ["verify", "sum-bounds", "--lo", "0.5", "--hi", "0.6", "--offset", "1e-320",
         "--grid-n", "5"],
        ["table", "K", "--spacing", "geometric", "--offset", "1e-309", "--grid-n", "5"],
        # 1 - offset rounds to 1, outside (0, 1)
        ["certify", "thm1-convex", "1.5", "--offset", "1e-17"],
        ["verify", "sum-bounds", "--offset", "1e-300"],
    ], ids=" ".join)
    def test_offset_outside_unit_interval_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "endpoint_offset" in err

    @pytest.mark.parametrize("selector, scan", [
        ("all", ["--hi", "0.5", "--offset", "2.2250738585072014e-308", "--grid-n", "2"]),
        ("sum-bounds", ["--lo", "0", "--offset", "1e-17", "--hi", "0.5"]),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_mirror_point_is_exact_where_one_minus_x_rounds_to_one(self, capsys, selector,
                                                                    scan):
        # 1 - x rounds to 1 at the first grid point x = offset, but K(1 - x)
        # comes from the nome of K(x)'s AGM pass at the exact mirror point,
        # so every check gives its verdict there
        code, out, err = run(capsys, ["verify", selector, "--format", "csv"] + scan)
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(out.splitlines()[1:]))
        assert rows and {r["verdict"] for r in rows} == {"pass"}
        assert {r["check"] for r in rows} >= {"sum-bounds"}
        # a check that uses K(x) alone runs on that grid too
        code, _, err = run(capsys, ["verify", "k-envelope", "--p", "0.5"] + scan)
        assert code == 0, err

    def test_parse_error_reported_before_scan_error(self, capsys):
        code, _, err = run(capsys, ["certify", "thm9-magic", "1", "--offset", "1e-17"])
        assert code == 2
        assert "unknown theorem id" in err and "endpoint_offset" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_nan_manifest_parameter_is_null(self, fmt):
        manifest = cli.RunManifest("eval", {"fn": "f", "a": math.nan, "x": [0.5]},
                                   cli.DEFAULT_SCAN, fmt)
        text, code = cli._run(manifest)
        assert code == 0
        strict = dict(parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        if fmt == "json":
            doc = json.loads(text, **strict)
            assert doc["results"] == [{"x": 0.5, "value": None}]
            embedded = doc["manifest"]
        else:
            embedded = json.loads(text.splitlines()[0].partition("manifest: ")[2], **strict)
        assert embedded["parameters"] == {"fn": "f", "a": None, "x": [0.5]}

    def test_json_writes_nonfinite_as_null(self):
        manifest = cli.RunManifest("eval", {"x": [0.5]}, cli.DEFAULT_SCAN, "json")
        columns = {"x": [0.5, 0.6, 0.7], "value": [math.inf, math.nan, 1.0]}
        doc = json.loads(cli._render(columns, manifest, "json"),
                         parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        assert [r["value"] for r in doc["results"]] == [None, None, 1.0]


class TestTable:
    @pytest.mark.parametrize("module, attr, argv", [
        (specfun, "ellip_k", ["table", "K"]),
        (family, "j_factor", ["table", "J", "--param", "p=0.5"]),
    ])
    def test_function_looked_up_per_command(self, monkeypatch, capsys, module, attr, argv):
        # a module attribute patched after import (as the benchmark's tracer
        # does) is the one that eval calls; table calls the function's
        # column form (specfun.ellip_k_column for K), also looked up per
        # command, once on the whole grid
        calls, grids = [], []
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: calls.append(args) or original(*args))
        if module is specfun:
            column = specfun.ellip_k_column
            monkeypatch.setattr(specfun, "ellip_k_column",
                                lambda xs: grids.append(xs) or column(xs))
        else:
            column = family.COLUMN_FORMS[attr]
            monkeypatch.setitem(family.COLUMN_FORMS, attr,
                                lambda p, xs: grids.append(xs) or column(p, xs))
        code, _, _ = run(capsys, argv + ["--grid-n", "50"])
        assert code == 0 and calls == [] and list(map(len, grids)) == [50]
        code, _, _ = run(capsys, ["eval", *argv[1:], "0.5"])
        assert code == 0 and calls[-1][-1] == 0.5 and len(calls) == 1

    def test_failing_last_point_is_evaluated_first(self, monkeypatch, capsys):
        # the point nearest 1 is evaluated first, so a function that fails
        # there is called once and its error is the one reported
        last = ScanConfig(n=50).grid()[-1]
        calls = []

        def stub(x):
            calls.append(x)
            if x == last:
                raise specfun.ConvergenceError(f"no value at x={x!r}")
            return 0.0

        monkeypatch.setattr(specfun, "ellip_e", stub)
        code, out, err = run(capsys, ["table", "E", "--grid-n", "50"])
        assert (code, out, calls) == (2, "", [last])
        assert err == f"error: at x={last!r}: no value at x={last!r}\n"

    @pytest.mark.parametrize("fn", ["K", "w_plus"])
    def test_geometric_grid_rounded_up_to_1(self, capsys, fn):
        # near 1 the rounding of the geometric ratio would lift the third
        # point to 1.0, above hi: the grid holds it at hi, so every point
        # lies in the scanned interval and the table has a value at each
        argv = ["table", fn, "--spacing", "geometric", "--lo", "0.9999999999999994",
                "--hi", "1", "--offset", "1.2e-16", "--grid-n", "4", "--format", "csv"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[2:]]
        lo, hi = ScanConfig(lo=0.9999999999999994, endpoint_offset=1.2e-16).ends
        xs = [x for x, _ in rows]
        assert xs == [0.9999999999999996, 0.9999999999999998, hi, hi] and lo <= xs[0]
        assert all(math.isfinite(v) for _, v in rows)

    @pytest.mark.parametrize("fn, params, message", [
        ("2F1", ["a=0.5", "b=0.5", "c=1"],  # diverges at 1: fails at the last point
         "at x=0.999999999: 2F1(0.5, 0.5; 1.0; 0.999999999) did not converge within "
         "1000000 terms"),
        ("f", ["a=-1"],  # a negative denominator near 0: fails at the first point
         "at x=1e-09: f denominator a - log(1-x)/2 = -0.9999999995 is not positive at x=1e-09"),
        ("h", ["p=-400"], "at x=0.999999999: out of floating-point range: "
                          "(34, 'Numerical result out of range')"),
    ], ids=["2F1", "f", "h"])
    def test_failing_table_message(self, capsys, fn, params, message):
        start = time.perf_counter()
        code, out, err = run(capsys, ["table", fn, *(f"--param={p}" for p in params)])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        if fn == "2F1":  # it summed 9,999 points before it failed, about 1 s
            assert time.perf_counter() - start < 0.2

    def test_grid_too_large_for_memory_is_usage_error(self, monkeypatch, capsys):
        # a grid that does not fit in memory ends in exit 2, not a traceback;
        # the grid's MemoryError is raised here without building it
        def grid(self, spacing="uniform"):
            raise MemoryError

        monkeypatch.setattr(ScanConfig, "grid", grid)
        code, out, err = run(capsys, ["table", "K", "--grid-n", "100000000", "--format", "csv"])
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_w_plus_table(self, capsys):
        code, out, _ = run(capsys, ["table", "w_plus", "--grid-n", "1000",
                                    "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "x,value"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 1000
        top = max(float(v) for _x, v in rows)
        assert top == pytest.approx(1.4615692950422916, abs=1e-4)

    def test_g_table_ends(self, capsys):
        code, out, _ = run(capsys, ["table", "G", "--grid-n", "1000",
                                    "--format", "csv"])
        lines = out.strip().splitlines()[2:]
        first = float(lines[0].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert first == pytest.approx(-7.0 / 32.0, abs=1e-6)
        # the approach to 0 is logarithmic; at offset 1e-9 the value is
        # still about -1/(2K) = -0.04
        assert -0.05 < last < 0.0

    def test_phi_table_monotone(self, capsys):
        code, out, _ = run(capsys, ["table", "phi", "--grid-n", "1000",
                                    "--format", "csv"])
        vals = [float(line.split(",")[1])
                for line in out.strip().splitlines()[2:]]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_geometric_spacing(self, capsys):
        code, out, _ = run(capsys, ["table", "K", "--grid-n", "50",
                                    "--spacing", "geometric", "--format", "csv"])
        xs = [float(line.split(",")[0])
              for line in out.strip().splitlines()[2:]]
        assert xs[0] == pytest.approx(1e-9, rel=1e-9)
        ratios = [b / a for a, b in zip(xs, xs[1:])]
        assert ratios[0] == pytest.approx(ratios[10], rel=1e-6)


class TestOutputContracts:
    def test_json_top_level_keys(self, capsys):
        code, out, _ = run(capsys, ["eval", "K", "0.5", "--format", "json"])
        doc = json.loads(out)
        assert set(doc) == {"manifest", "results"}
        assert doc["manifest"]["command"] == "eval"
        assert doc["manifest"]["scan"]["n"] == 10000

    @pytest.mark.parametrize("command", OPTIONS)
    def test_manifest_fields(self, capsys, command):
        # only the settings some run reads: no refine depth, and a seed
        # among verify's parameters alone
        code, out, _ = run(capsys, fast(BASE[command] + ["--format", "json"]))
        assert code == 0
        manifest = manifest_of(out, "json")
        assert list(manifest) == ["command", "parameters", "scan", "output_format"]
        assert list(manifest["scan"]) == ["lo", "hi", "n", "endpoint_offset"]
        assert ("seed" in manifest["parameters"]) == (command == "verify")
        if command == "verify":
            assert list(manifest["parameters"]) == ["selector", "a", "p", "seed"]

    def test_csv_lf_endings(self, capsys):
        _, out, _ = run(capsys, ["eval", "K", "0.5", "0.9", "--format", "csv"])
        assert "\r" not in out
        assert out.endswith("\n")

    def test_byte_reproducibility(self, capsys):
        argv = ["verify", "mean-chain", "--p", "0.5", "--seed", "3", "--format", "json"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("argv", [
        ["eval", "h", "--param", "p=7/32", "0.5", "0.25"],
        ["table", "2F1", "--param", "a=0.5", "--param", "b=0.5", "--param", "c=2",
         "--hi", "0.5", "--spacing", "geometric"],
        ["certify", "thm3-logconvex", "-1/20"],
        ["verify", "all", "--seed", "4"],
        ["verify", "k-envelope", "--p", "0.1"],
        ["constants"],
    ], ids=" ".join)
    def test_manifest_replay(self, capsys, argv, fmt):
        code, out, err = run(capsys, fast(argv + ["--format", fmt]))
        assert code in (0, 1), err
        assert cli.run_from_manifest(manifest_of(out, fmt)) == out

    def test_main_runs_the_manifest_it_records(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "_run", lambda m, run=cli._run: seen.append(m) or run(m))
        _, out, _ = run(capsys, ["certify", "thm1-convex", "1.5", "--format", "json", *FAST])
        assert [m._asdict() for m in seen] == [manifest_of(out, "json")]

    @pytest.mark.parametrize("key, value", [
        ("spacing", "bogus"), ("output_format", "xml"), ("command", "nope")])
    def test_replay_rejects_unknown_name(self, capsys, key, value):
        _, out, _ = run(capsys, ["table", "K", "--format", "json", "--grid-n", "5"])
        manifest = manifest_of(out, "json")
        (manifest["parameters"] if key == "spacing" else manifest)[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be one of .*; got '{value}'$"):
            cli.run_from_manifest(manifest)

    @pytest.mark.parametrize("n", [2.5, "10"])
    def test_replay_rejects_non_integer_grid_size(self, capsys, n):
        _, out, _ = run(capsys, ["table", "K", "--format", "json", "--grid-n", "5"])
        manifest = manifest_of(out, "json")
        manifest["scan"]["n"] = n
        with pytest.raises(ValueError, match=f"^grid size n must be an integer; got n={n!r}$"):
            cli.run_from_manifest(manifest)

    def test_replay_checks_theorem_id(self, capsys):
        _, out, _ = run(capsys, ["certify", "thm1-convex", "1.5", "--format", "json", *FAST])
        manifest = manifest_of(out, "json")
        manifest["parameters"]["theorem"] = "thm9-magic"
        with pytest.raises(DomainError, match="unknown theorem id 'thm9-magic'"):
            cli.run_from_manifest(manifest)

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("kind", ["finite", "non-finite", "mixed"])
    def test_render_matches_reference_at_size(self, kind, fmt):
        # 2,000 rows of each kind of column, each next to a finite float
        # column under a key that holds % and ", under a manifest with a %
        n = 2000
        xs = [i / n - 0.5 for i in range(n)]
        cells = {
            "finite": [math.exp(x * 1400.0) * (-1.0) ** i for i, x in enumerate(xs)],
            "non-finite": [x / 3.0 for x in xs[:-2]] + [math.nan, math.inf],
            "mixed": [(None, i, f'{i},"%s"\n', -0.0)[i % 4] for i in range(n)],
        }[kind]
        columns = {'x%s "1%"': xs, kind: cells}
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        manifest = cli.RunManifest("table", {"fn": "K%s", "spacing": "uniform"},
                                   cli.DEFAULT_SCAN, fmt)
        assert cli._render(columns, manifest, fmt) == oracles.render_reference(
            rows, manifest, fmt)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "k.csv"
        code, out, _ = run(capsys, ["eval", "K", "0.5", "--format", "csv",
                                    "--out", str(target)])
        assert code == 0
        assert out == ""
        assert "1.8540746773013717" in target.read_text()

    @pytest.mark.parametrize("where", ["missing/dir/x.json", "."])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, where):
        # a missing directory, or a directory given as the path
        code, out, err = run(capsys, ["certify", "thm1-concave", "4/3", *FAST,
                                      "--out", str(tmp_path / where)])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: [Errno ")
        assert "Traceback" not in err

    def test_seventeen_digit_csv(self, capsys):
        _, out, _ = run(capsys, ["eval", "E", "0.3", "--format", "csv"])
        value = out.strip().splitlines()[-1].split(",")[1]
        assert value == format(float(value), ".17g")
        assert float(value) == pytest.approx(1.4453630644126653, rel=1e-15)


# every exception class the package exports; the contract test adds the
# builtins a run step raises for a bad number or a power too large for a double
EXPORTED_ERRORS = [cls for cls in (getattr(ellipcert, name) for name in ellipcert.__all__)
                   if isinstance(cls, type) and issubclass(cls, BaseException)]


class TestExitCodeContract:
    def test_mean_chain_underflow_is_usage_error(self, capsys):
        # h = (1 - x)^p K underflows to 0 at every point for p = 1e300; at
        # p = 35 the power at the upper end is a subnormal and the run passes
        code, out, err = run(capsys, ["verify", "mean-chain", "--p", "1e300"])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "error: mean-chain: (1 - r)^p underflows to 0 at r=0.999999999 for p=1e+300\n"
        code, out, _ = run(capsys, ["verify", "mean-chain", "--p", "35"])
        assert code == cli.EXIT_OK
        assert out.count(" pass ") == 2

    def test_mean_chain_with_every_h_below_tolerance_is_inconclusive(self, capsys):
        # every h there is below 3e-281, so no margin can exceed
        # VIOLATION_TOL and a pass would show nothing
        code, out, err = run(capsys, ["verify", "mean-chain", "--p", "35", "--lo", "0.99999999"])
        assert (code, out) == (cli.EXIT_INCONCLUSIVE, "")
        assert err == ("inconclusive: mean-chain: every h(p, r) is at most "
                       "2.6458274086353873e-281 for p=35.0, within VIOLATION_TOL=1e-12 "
                       "of 0: no clause can fail\n")

    @pytest.mark.parametrize("p, message", [
        ("45", "5.269597174052966e-14 for p=45.0"),
        ("500", "5.6640801523317554e-151 for p=500.0"),
    ], ids=["p45", "p500"])
    @pytest.mark.parametrize("selector", ["product-pair", "all"])
    def test_vacuous_geo_upper_is_inconclusive(self, capsys, selector, p, message):
        # both sides of geo_upper lie within VIOLATION_TOL of 0, so a pass
        # would show nothing; p=40 still passes (test_inequalities), and
        # p=2000 overflows first (TestFloatRange); verify all runs
        # product-pair before mean-chain, whose (1 - r)^p underflows there
        code, out, err = run(capsys, ["verify", selector, "--p", p])
        assert (code, out) == (cli.EXIT_INCONCLUSIVE, "")
        assert err == (f"inconclusive: product-pair: geo_upper's sides are at most {message}, "
                       "within VIOLATION_TOL=1e-12 of 0: it cannot fail\n")

    @pytest.mark.parametrize("error", [*EXPORTED_ERRORS, ValueError, OverflowError],
                             ids=lambda cls: cls.__name__)
    def test_each_error_has_its_exit_code(self, monkeypatch, capsys, error):
        # an error from a run step ends in exit 3 (inconclusive) or 2, with
        # one line on stderr and none on stdout; an exported error without
        # a handler escapes main and fails here
        def run_step(cfg):
            raise error("boom")

        monkeypatch.setitem(cli._COMMANDS, "constants", (lambda args: {}, run_step))
        code, out, err = run(capsys, ["constants"])
        inconclusive = error is ellipcert.InconclusiveScanError
        assert code == (cli.EXIT_INCONCLUSIVE if inconclusive else cli.EXIT_USAGE)
        assert out == ""
        assert err.startswith("inconclusive: " if inconclusive else "error: ")
        assert err.count("\n") == 1 and err.endswith("boom\n")
        assert "Traceback" not in err
