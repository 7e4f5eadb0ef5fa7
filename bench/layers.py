"""Outside-in tracing of the ellipcert layers, from the benchmark's own code.

The tracer replaces the module attributes through which one layer calls the
next with timing wrappers, and puts the originals back afterwards.  Nothing
under ``src/`` changes.  Layers are named after the modules:

- ``specfun`` (kernel): the specfun functions imported into ``family``,
  ``certify`` and ``inequalities``, and ``specfun.ellip_k``/``ellip_e``,
  which ``cli`` reaches for ``table K``/``E``.  ``specfun.hyp2f1`` is left
  unwrapped because ``ke_ratio`` calls it inside its own series branch.
- ``family`` (factors): the public functions of ``family``, and the ones
  imported into ``certify``.
- ``certify`` (scan): the certify functions imported into ``cli`` and
  ``inequalities``.  The callable handed to ``certify_sign`` is wrapped too,
  so that every scanned evaluation is counted.
- ``inequalities`` (check): ``inequalities.check_*``.
- ``cli`` (parse, dispatch, render): the benchmark's call of ``cli.main``
  and ``cli._render``.

Every call updates per-site counters: calls, total time and self time, which
is total time minus the time spent in wrapped children.  A wrapper's own
work falls partly inside the callee's timed window (the clock, the dispatch)
and partly outside it, in the caller's (the hook, the frame, the counters).
``Tracer.calibrate`` times wrapped no-ops to measure both parts, and every
wrapper subtracts them: the inside part from the callee's times, the
outside part from the caller's self time.  What the calibration misses
stays in the self times as residual overhead.  The kernel and
factor layers run millions of times per pass, so they keep only these
counters.  The scan, check and cli boundaries also record a span (id,
parent id, request id, layer, name, start, end), kept in memory and written
out when the run ends.
"""

from __future__ import annotations

import inspect
import statistics
import time
import types
from collections import Counter

# ke_ratio/ke_ratio2 sum a power series below this argument and use the AGM
# above it (specfun._RATIO_SERIES_CUT at the seed).
SERIES_CUT = 0.25
SERIES_KERNELS = ("ke_ratio", "ke_ratio2")
NOT_KERNELS = ("require_unit_interval",)
LAYERS = ("specfun", "family", "certify", "inequalities", "cli")
# Tracer.calibrate times CALIBRATION_ROUNDS rounds of CALIBRATION_CALLS calls
# per kind of wrapper (about 0.1 s in all) and keeps the medians.
CALIBRATION_CALLS = 2000
CALIBRATION_ROUNDS = 7


def _noop(x):
    return x


def _loop(fn, n: int):
    def loop():
        for _ in range(n):
            fn(0.5)
    return loop


def _functions(module, source) -> list[str]:
    """Public functions defined in module `source` and bound in `module`."""
    return [name for name, value in vars(module).items()
            if isinstance(value, types.FunctionType) and not name.startswith("_")
            and value.__module__ == source.__name__]


class Site:
    """Counters of one wrapped attribute: calls, entries from another layer,
    total seconds, self seconds, and total seconds of the entries from
    another layer (which do not double-count a layer calling itself)."""

    __slots__ = ("module", "layer", "name", "data")

    def __init__(self, module: str, layer: str, name: str):
        self.module, self.layer, self.name = module, layer, name
        self.data = [0, 0, 0.0, 0.0, 0.0]


def _kind(hook, span: bool) -> tuple:
    """The key of a wrapper's calibrated cost."""
    return (hook.__name__ if hook is not None else None, span)


class Tracer:
    def __init__(self):
        # open frames: [layer, seconds off its self time, span id,
        #               tracer seconds inside its window]
        self.stack: list[list] = []
        self.sites: dict[str, Site] = {}
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.request = 0
        self.cost: dict = {}  # calibrated seconds per call, see calibrate()
        self._saved: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, module: str, layer: str, name: str, fn, *, span=False, hook=None):
        site = self.sites.setdefault(f"{module}.{name}", Site(module, layer, name))
        data, stack, spans, clock = site.data, self.stack, self.spans, time.perf_counter
        c_out, c_in = self.cost.get(_kind(hook, span), (0.0, 0.0))

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0, None, 0.0]
            if span:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                frame[2] = len(spans)
                spans.append([frame[2], parent, self.request, layer, name, 0.0, 0.0])
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    caller = stack[-1]
                    caller[1] += dt + c_out
                    caller[3] += c_out + c_in + frame[3]
                total = dt - c_in - frame[3]
                data[0] += 1
                data[1] += outer
                data[2] += total
                data[3] += dt - c_in - frame[1]
                if outer:
                    data[4] += total
                if span:
                    spans[frame[2]][5:] = [t0, t0 + dt]
        return wrapper

    def calibrate(self) -> None:
        """Time wrapped no-ops and keep, per kind of wrapper, the seconds one
        call costs outside the callee's timed window and inside it, for the
        wrappers made afterwards.

        The outside cost is the caller's self time per call of a wrapped no-op
        minus that of a plain one; the inside cost is the wrapped no-op's own
        self time per call.  An untimed counter (``_count``) costs its caller
        the difference between a counted and a plain no-op."""
        n = CALIBRATION_CALLS
        probe = Tracer()
        hooks = (None, probe._series, probe._evaluated)
        callees = {"plain": _noop, "count": probe._count("calibrate", _noop)}
        for hook, span in [(hook, False) for hook in hooks] + [(None, True)]:
            key = _kind(hook, span)
            callees[key] = probe.wrap("calibrate", "callee", str(key), _noop,
                                      hook=hook, span=span)
        loops = [probe.wrap("calibrate", "caller", f"loop {key}", _loop(fn, n))
                 for key, fn in callees.items()]
        samples: dict = {key: [] for key in callees if key != "plain"}
        for _ in range(CALIBRATION_ROUNDS):
            probe.reset()
            for loop in loops:
                loop()
            plain = probe.sites["calibrate.loop plain"].data[3]
            for key, got in samples.items():
                c_out = (probe.sites[f"calibrate.loop {key}"].data[3] - plain) / n
                got.append(c_out if key == "count"
                           else (c_out, probe.sites[f"calibrate.{key}"].data[3] / n))
        self.cost = {"count": statistics.median(samples.pop("count"))}
        for key, pairs in samples.items():
            self.cost[key] = (statistics.median(c for c, _ in pairs),
                              statistics.median(c for _, c in pairs))

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _count(self, key: str, fn):
        counts, stack, cost = self.counts, self.stack, self.cost.get("count", 0.0)

        def counted(*args, **kwargs):
            counts[key] += 1
            if stack:
                caller = stack[-1]
                caller[1] += cost
                caller[3] += cost
            return fn(*args, **kwargs)
        return counted

    def _series(self, args) -> None:
        if args and args[0] < SERIES_CUT:
            self.counts["specfun.series_calls"] += 1

    def _evaluated(self, args) -> None:
        self.counts["certify.evals"] += 1

    def _scan(self, fn):
        """certify-layer entry: counts its evaluations and those beyond the grid."""
        sig = inspect.signature(fn)
        counts, family_kernels = self.counts, self._family_kernels

        def scan(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            first = next(iter(bound.arguments))
            if callable(bound.arguments[first]):
                bound.arguments[first] = self._count("certify.evals", bound.arguments[first])
            evals0 = counts["certify.evals"]
            kernels0 = family_kernels()
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                evals = counts["certify.evals"] - evals0
                counts["certify.scan_evals"] += evals
                counts["certify.scan_kernel_calls"] += family_kernels() - kernels0
                cfg = bound.arguments.get("cfg")
                if cfg is not None:
                    counts["certify.refine_evals"] += max(0, evals - cfg.n)
        return scan

    def _check(self, fn):
        counts = self.counts

        def check(*args, **kwargs):
            report = fn(*args, **kwargs)
            counts["inequalities.grid_points"] += report.grid_n
            return report
        return check

    def _family_kernels(self) -> int:
        return sum(s.data[0] for s in self.sites.values()
                   if s.layer == "specfun" and s.module == "family")

    def install(self, cli, certify, inequalities, family, specfun) -> None:
        """Calibrate, then wrap the layer boundaries."""
        self.calibrate()
        short = {m: m.__name__.rpartition(".")[2]
                 for m in (cli, certify, inequalities, family, specfun)}
        kernel_sites = [(m, n) for m in (family, certify, inequalities)
                        for n in _functions(m, specfun) if n not in NOT_KERNELS]
        kernel_sites += [(specfun, n) for n in ("ellip_k", "ellip_e") if hasattr(specfun, n)]
        for m, n in kernel_sites:
            self._patch(m, n, self.wrap(short[m], "specfun", n, getattr(m, n),
                                        hook=self._series if n in SERIES_KERNELS else None))
        for n in _functions(family, family):
            self._patch(family, n, self.wrap("family", "family", n, getattr(family, n)))
        if hasattr(family, "_core"):
            self._patch(family, "_core", self._count("family.core_calls", family._core))
        for n in _functions(certify, family):
            self._patch(certify, n, self.wrap("certify", "family", n, getattr(certify, n),
                                              hook=self._evaluated))
        for m in (cli, inequalities):
            for n in _functions(m, certify):
                self._patch(m, n, self.wrap(short[m], "certify", n,
                                            self._scan(getattr(m, n)), span=True))
        for n in _functions(inequalities, inequalities):
            if n.startswith("check_"):
                self._patch(inequalities, n, self.wrap(
                    "inequalities", "inequalities", n,
                    self._check(getattr(inequalities, n)), span=True))
        self._patch(cli, "_render", self.wrap("cli", "cli", "_render", cli._render, span=True))

    def entry(self, fn):
        """Wrap the benchmark's own call into the cli layer (one span per command)."""
        return self.wrap("bench", "cli", "main", fn, span=True)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        """Zero the counters; spans are kept for the whole run."""
        for site in self.sites.values():
            site.data[:] = [0, 0, 0.0, 0.0, 0.0]
        self.counts.clear()

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the counters since the last reset.

        ``<layer>.calls`` counts entries from another layer.  The calls of
        certify, inequalities and cli and every ``<layer>.total_s`` appear
        only in the notes and the span file."""
        def total(index, layer, name=None):
            return sum(s.data[index] for s in self.sites.values()
                       if s.layer == layer and (name is None or s.name == name))

        c = self.counts
        return {
            "specfun.self_s": total(3, "specfun"),
            "specfun.ellip_k.calls": total(0, "specfun", "ellip_k"),
            "specfun.ellip_k.self_s": total(3, "specfun", "ellip_k"),
            "specfun.ke_ratio.self_s": total(3, "specfun", "ke_ratio"),
            "specfun.ke_ratio2.self_s": total(3, "specfun", "ke_ratio2"),
            "specfun.ellip_ke.self_s": total(3, "specfun", "ellip_ke"),
            "specfun.series_calls": c["specfun.series_calls"],
            "family.self_s": total(3, "family"),
            "family.kernel_calls_per_eval": (
                c["certify.scan_kernel_calls"] / c["certify.scan_evals"]
                if c["certify.scan_evals"] else 0.0),
            "family.core_calls": c["family.core_calls"],
            "certify.evals": c["certify.scan_evals"],
            "certify.refine_evals": c["certify.refine_evals"],
            "certify.self_s": total(3, "certify"),
            "inequalities.grid_points": c["inequalities.grid_points"],
            "inequalities.self_s": total(3, "inequalities"),
            "cli.self_s": total(3, "cli"),
            "cli.render_s": total(2, "cli", "_render"),
            **{f"{layer}.calls": total(1, layer) for layer in LAYERS},
            **{f"{layer}.total_s": total(4, layer) for layer in LAYERS},
        }
