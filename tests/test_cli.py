"""Command-line contract tests: subcommands, formats, exit codes,
manifest embedding and byte reproducibility."""

import json
import math
import time

import pytest

import oracles
from ellipcert import cli, family, specfun
from ellipcert.certify import ScanConfig
from ellipcert.specfun import DomainError

FAST = ["--grid-n", "2000"]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def manifest_of(out, fmt):
    """The manifest dict that a run's output embeds."""
    if fmt == "json":
        return json.loads(out)["manifest"]
    return json.loads(out.splitlines()[0].partition("manifest: ")[2])


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
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_param_the_function_does_not_take(self, capsys, argv, message):
        code, out, err = run(capsys, argv + FAST)
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
        code, out, err = run(capsys, argv + FAST)
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
        code, out, err = run(capsys, argv + FAST)
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
        got, _, err = run(capsys, argv + FAST)
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

    @pytest.mark.parametrize("p", ["0.03", "0.04"])
    def test_k_envelope_small_p(self, capsys, p):
        code, out, err = run(capsys, ["verify", "k-envelope", "--p", p,
                                      "--format", "json"] + FAST)
        assert code == 0, err
        rows = json.loads(out)["results"]
        assert rows[0]["clause"] == "x_p" and rows[0]["witness_x"] > 1.0 - 1e-9

    @pytest.mark.parametrize("p", ["0.02", "0.24999999999"])
    def test_k_envelope_without_x_p_is_inconclusive(self, capsys, p):
        # a valid p whose turning point no double in the ladder's range holds
        code, out, err = run(capsys, ["verify", "k-envelope", "--p", p] + FAST)
        assert code == 3
        assert out == ""
        assert err.startswith("inconclusive: ") and err.count("\n") == 1
        assert "Traceback" not in err

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
        ["eval", "K", "0.5", "--offset", "1e-17"],
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
    def test_mirror_point_rounding_to_one_is_usage_error(self, capsys, selector, scan):
        # 1 - x rounds to 1 at the first grid point x = offset, so K(1 - x)
        # is undefined there; the error names the offset and that point
        offset = scan[scan.index("--offset") + 1]
        code, out, err = run(capsys, ["verify", selector] + scan)
        assert (code, out) == (2, "")
        assert err == (f"error: endpoint_offset={offset}: at the grid point x={offset} "
                       "the mirror point 1 - x rounds to 1, outside (0, 1)\n")
        # a check that uses K(x) alone still runs on that grid
        code, _, err = run(capsys, ["verify", "k-envelope", "--p", "0.5"] + scan)
        assert code == 0, err

    def test_parse_error_reported_before_scan_error(self, capsys):
        code, _, err = run(capsys, ["certify", "thm9-magic", "1", "--offset", "1e-17"])
        assert code == 2
        assert "unknown theorem id" in err and "endpoint_offset" not in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_nan_manifest_parameter_is_null(self, fmt):
        manifest = cli.RunManifest("eval", {"fn": "f", "a": math.nan, "x": [0.5]},
                                   cli.DEFAULT_SCAN, fmt, 0)
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
        manifest = cli.RunManifest("eval", {"x": [0.5]}, cli.DEFAULT_SCAN, "json", 0)
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
        # does) is the one that eval and table call
        calls = []
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *args: calls.append(args) or original(*args))
        code, _, _ = run(capsys, argv + ["--grid-n", "50"])
        assert code == 0 and len(calls) == 50
        code, _, _ = run(capsys, ["eval", *argv[1:], "0.5"])
        assert code == 0 and calls[-1][-1] == 0.5 and len(calls) == 51

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

        monkeypatch.setattr(specfun, "ellip_k", stub)
        code, out, err = run(capsys, ["table", "K", "--grid-n", "50"])
        assert (code, out, calls) == (2, "", [last])
        assert err == f"error: at x={last!r}: no value at x={last!r}\n"

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
        assert doc["manifest"]["seed"] == 0
        assert doc["manifest"]["scan"]["n"] == 10000

    def test_csv_lf_endings(self, capsys):
        _, out, _ = run(capsys, ["eval", "K", "0.5", "0.9", "--format", "csv"])
        assert "\r" not in out
        assert out.endswith("\n")

    def test_byte_reproducibility(self, capsys):
        argv = ["verify", "mean-chain", "--p", "0.5", "--seed", "3",
                "--format", "json", *FAST]
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
        code, out, err = run(capsys, argv + ["--format", fmt, *FAST])
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
                                   cli.DEFAULT_SCAN, fmt, 0)
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
