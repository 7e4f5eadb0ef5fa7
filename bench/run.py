"""Benchmark of the ellipcert command line, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

One client drives a closed loop in a single process, with no threads: it
generates the seeded argv list of a workload (bench/cases.py), then calls
``ellipcert.cli.main(argv)`` on each entry in turn with stdout captured, and
checks each output.  One untimed warm-up pass comes first; timed passes
follow while the next one still fits in ``--seconds``.  Every pass repeats
the same argv list, so every command must print the same bytes each time
(the CLI's byte-reproducibility contract); a mismatch is a failure.

The machine this runs on changes speed by up to 2x within seconds (other
tenants share its cores), which no number of repeats averages out.  So a
fixed pure-Python reference loop, independent of the package, is timed
between every two commands, and every time the benchmark reports is scaled
to a machine on which that loop takes REF_S seconds:
``scaled = wall * REF_S / mean(reference before, reference after)``.
The unscaled wall-clock figures are printed alongside.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics (bench/layers.py),
the medians over traced passes, plus the tracing overhead; the spans go to
``.bench_out/``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` next to this directory, as the tests
do with PYTHONPATH=src; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases
from layers import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = tuple(cases.GENERATORS)
SETUP_SAMPLES = 15
SETUP_CODE = ("import ellipcert.cli as c; c.build_parser(); "
              "import sys; sys.stdout.write('ready\\n'); sys.stdout.flush()")
PROGRAM_PASS_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
                     "run.program_pass(sys.argv[3], int(sys.argv[4]))")

# Nominal seconds of reference_loop(), about its median on the 2-vCPU x86-64
# machine the baseline was recorded on; the scale of every reported time.
REF_S = 3e-3

END_TO_END = {
    "setup_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
    "cmds_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "specfun.calls": "count", "specfun.self_s": "s",
    "specfun.ellip_k.calls": "count", "specfun.ellip_k.self_s": "s",
    "specfun.ke_ratio.self_s": "s", "specfun.ke_ratio2.self_s": "s",
    "specfun.ellip_ke.self_s": "s", "specfun.series_calls": "count",
    "family.calls": "count", "family.self_s": "s",
    "family.kernel_calls_per_eval": "ratio", "family.core_calls": "count",
    "certify.evals": "count", "certify.refine_evals": "count", "certify.self_s": "s",
    "inequalities.grid_points": "count", "inequalities.self_s": "s",
    "cli.self_s": "s", "cli.render_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio", "trace.residual_frac": "ratio",
}


def reference_loop() -> int:
    """Fixed work that never changes, shaped like a scan: an AGM loop per grid
    point, a dict of results, a sort by margin and full-precision formatting.
    Over 150 s of certify passes it tracked their speed better than a plain
    arithmetic loop did: scaled pass times varied by 5.5% against 8.5%."""
    n = 1500
    seen = {}
    for i in range(1, n):
        x = i / n
        a, b = 1.0, math.sqrt(1.0 - x)
        s = 0.0
        for _ in range(5):
            c = 0.5 * (a - b)
            a, b = 0.5 * (a + b), math.sqrt(a * b)
            s += c * c
        seen[x] = (math.pi / (a + b), s)
    order = sorted(seen, key=lambda k: (abs(seen[k][1] - 0.1), k))
    return len(",".join(format(seen[k][0], ".17g") for k in order[:300]))


def reference_time() -> float:
    """Wall seconds of one reference_loop() call."""
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def scaled(wall: float, before: float, after: float) -> float:
    """wall, scaled by the mean of the reference times around it."""
    return wall * 2.0 * REF_S / (before + after)


def measure_setup() -> float:
    """Median scaled seconds from spawning an interpreter until it has
    imported ellipcert.cli and built the parser (after one untimed warm-up
    spawn, which also leaves the bytecode cache warm)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        before = reference_time()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
        if line != "ready\n" or proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed (exit {proc.returncode})")
        samples.append(scaled(wall, before, reference_time()))
    return statistics.median(samples[1:])


class HashSink(io.TextIOBase):
    """A stdout that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)


def call_main(main, argv) -> int | str:
    """Exit code of main(argv), or the exception it raised."""
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code
    except Exception as exc:  # a traceback is a failed command
        return f"{type(exc).__name__}: {exc}"


def program_pass(workload: str, seed: int) -> None:
    """Run one pass of a workload with stdout hashed, not kept, and print the
    exit code and output digest of each command and the peak resident memory
    of this process.  It runs in a fresh interpreter (Runner.program_pass), so
    the memory is the program's alone, not the checks' of the benchmark."""
    from ellipcert import cli

    results = []
    for case in cases.build(workload, seed):
        sink = HashSink()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            code = call_main(cli.main, case.argv)
        results.append([code, sink.sha.hexdigest()])
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"maxrss_kb": maxrss_kb, "results": results}))


class Runner:
    """Runs command passes, checks every output, and keeps the tallies."""

    def __init__(self, cli, workload_cases):
        self.cli = cli
        self.cases = workload_cases
        self.digests: dict[tuple[str, ...], str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.walls: list[float] = []
        self.output_bytes = 0

    def run_pass(self, call=None, tracer: Tracer | None = None) -> list[float]:
        """One pass over the argv list; returns the scaled latency of each
        command, and keeps the wall-clock ones in self.walls."""
        call = call or self.cli.main
        latencies = []
        self.walls = []
        self.output_bytes = 0
        for i, case in enumerate(self.cases):
            if tracer is not None:
                tracer.request = i
            out, err = io.StringIO(), io.StringIO()
            before = reference_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = call_main(call, case.argv)
                wall = time.perf_counter() - t0
            self.walls.append(wall)
            latencies.append(scaled(wall, before, reference_time()))
            text = out.getvalue()
            self.output_bytes += len(text.encode())
            self.attempted += 1
            problem = self._problem(case, code, text, err.getvalue())
            if problem:
                self.failures.append(f"{' '.join(case.argv)}: {problem}")
        return latencies

    def program_pass(self, workload: str, seed: int) -> float:
        """Run one pass in a fresh interpreter (program_pass) and return its
        peak resident memory in MB.  Each command there counts as attempted
        and fails on a wrong exit code or on output bytes other than here."""
        proc = subprocess.run(
            [sys.executable, "-c", PROGRAM_PASS_CODE, str(Path(__file__).resolve().parent),
             str(SRC), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"program pass failed (exit {proc.returncode}):\n{proc.stderr}")
        report = json.loads(proc.stdout.splitlines()[-1])
        for case, (code, digest) in zip(self.cases, report["results"], strict=True):
            self.attempted += 1
            if code != case.code:
                self.failures.append(f"{' '.join(case.argv)}: exit {code!r} in a fresh "
                                     f"interpreter, expected {case.code}")
            elif self.digests.get(case.argv) != digest:
                self.failures.append(f"{' '.join(case.argv)}: output in a fresh "
                                     "interpreter differs")
        return report["maxrss_kb"] / 1024.0

    def _problem(self, case, code, text: str, err: str) -> str | None:
        if code != case.code:
            return f"exit {code!r}, expected {case.code} {err.strip()[:200]}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digests.setdefault(case.argv, digest) != digest:
            return "output differs from an earlier run of the same argv"
        return case.check(text)


def timed_passes(seconds: float, one_pass) -> None:
    """Call one_pass() at least once, and again while another pass still fits."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least 10 samples beyond it:
    (value, percentile, samples beyond).  Falls back to the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = 10 if n > 10 else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(cli, workload: str, seed: int, workload_cases,
               seconds: float) -> tuple[Runner, dict, list[str]]:
    setup_s = measure_setup()
    runner = Runner(cli, workload_cases)
    runner.run_pass()  # warm-up: untimed, but checked
    latencies: list[float] = []
    walls: list[float] = []

    def one_pass():
        latencies.extend(runner.run_pass())
        walls.extend(runner.walls)

    timed_passes(seconds, one_pass)
    peak_rss_mb = runner.program_pass(workload, seed)
    tail_s, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": tail_s,
        # commands per second of time spent inside cli.main; the checks
        # the benchmark makes between commands are not counted
        "cmds_per_s": len(latencies) / sum(latencies),
        "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"cmd_tail_s is p{pct:.1f}: {beyond} of {len(latencies)} timed commands lie beyond it",
             f"unscaled wall clock: cmd_p50 {statistics.median(walls):.6g} s, "
             f"cmd_tail {tail(walls)[0]:.6g} s, {len(walls) / sum(walls):.6g} cmds/s; "
             f"scaled/wall = {sum(latencies) / sum(walls):.3f}",
             f"failed_frac = {1.0 - metrics['ok_frac']:.6g} "
             f"({len(runner.failures)} of {runner.attempted} commands)"]
    return runner, metrics, notes


def per_layer(cli, workload_cases, seconds: float, label: str) -> tuple[Runner, dict, list[str]]:
    from ellipcert import certify, family, inequalities, specfun

    runner = Runner(cli, workload_cases)
    runner.run_pass()  # warm-up
    tracer = Tracer()
    plain, traced, layer_runs, residual = [], [], [], []

    def pair():
        plain.append(sum(runner.run_pass()))
        tracer.install(cli, certify, inequalities, family, specfun)
        try:
            tracer.reset()
            traced.append(sum(runner.run_pass(tracer.entry(cli.main), tracer)))
        finally:
            tracer.remove()
        factor = traced[-1] / sum(runner.walls)  # seconds scaled like the latencies
        layer_runs.append({k: v * factor if k.endswith("_s") else v
                           for k, v in tracer.metrics().items()})
        layer_runs[-1]["cli.output_bytes"] = runner.output_bytes
        # what the calibrated correction leaves of the tracing overhead
        residual.append(layer_runs[-1]["cli.total_s"] / plain[-1] - 1.0)

    timed_passes(seconds, pair)
    metrics = {k: statistics.median(run[k] for run in layer_runs) for k in layer_runs[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.residual_frac"] = statistics.median(residual)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{label}.json"
    fields = ("id", "parent", "request", "layer", "name", "start", "end")
    with open(path, "w") as fh:
        json.dump({"argv": [list(c.argv) for c in workload_cases],
                   "passes": layer_runs,
                   "spans": [dict(zip(fields, s)) for s in tracer.spans]}, fh)
    pass_s = statistics.median(traced)
    shares = ", ".join(f"{layer} {metrics[layer + '.self_s'] / pass_s:.0%}" for layer in LAYERS)
    per_layer_line = "; ".join(
        f"{layer} {metrics[layer + '.calls']:.0f} / {metrics[layer + '.total_s']:.4g} s"
        f" / {metrics[layer + '.self_s']:.4g} s" for layer in LAYERS)
    notes = [f"self-time share of a traced pass ({pass_s:.3f} s): {shares}",
             f"calls / total / self per layer: {per_layer_line}",
             f"render share {metrics['cli.render_s'] / pass_s:.0%}; "
             f"family._core calls per kernel call "
             f"{metrics['family.core_calls'] / max(metrics['specfun.calls'], 1):.2%}",
             f"{len(layer_runs)} traced passes; spans written to {path.relative_to(ROOT)}"]
    return runner, metrics, notes


def run(cli, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    workload_cases = cases.build(workload, seed)
    if trace:
        runner, metrics, notes = per_layer(cli, workload_cases, seconds, f"{workload}-seed{seed}")
        units = PER_LAYER
    else:
        runner, metrics, notes = end_to_end(cli, workload, seed, workload_cases, seconds)
        units = END_TO_END
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    lines = [f"workload {workload}, seed {seed}, {len(workload_cases)} commands per pass"]
    lines += [f"  {k} = {metrics[k]:.6g} {u}" for k, u in units.items()]
    lines += [f"  {note}" for note in notes]
    lines += [f"  FAILED {msg}" for msg in runner.failures[:10]]
    return result, lines


def self_check(cli) -> int:
    """Run each workload once per mode: every metric of BENCHMARK.json present
    with its unit, and no failed command at the seed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result, lines = run(cli, workload, seed=0, seconds=0.0, trace=trace)
            print("\n".join(lines), flush=True)
            units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{workload} trace={int(trace)}: metrics {got}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run each workload once and check the metrics")
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "ellipcert" / "cli.py").is_file():
        print(f"error: no ellipcert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ellipcert import cli

    if args.self_check:
        return self_check(cli)
    result, lines = run(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
