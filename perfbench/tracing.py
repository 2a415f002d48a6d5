"""In-memory spans around qdspin's layer boundaries, recorded from outside the package.

`Tracer.install` replaces each public function a layer offers to the
others, at every qdspin module attribute through which it is called (for
example `qdspin.evolution.discord_bounds`, `qdspin.measures.max_eigenpair`),
by a wrapper that records a span: op id, span id, parent span id, name,
start and end.  The CSV writers are wrapped on their classes.  Nothing in
qdspin changes; `Tracer.uninstall` puts the original objects back.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module that defines the function, attribute, span name)
TARGETS = (
    ("qdspin.cli", "main", "cli.main"),
    ("qdspin.channel", "build_quadrature", "channel.build_quadrature"),
    ("qdspin.channel", "compute_channel", "channel.compute_channel"),
    ("qdspin.evolution", "evolve", "evolution.evolve"),
    ("qdspin.evolution", "apply_channel", "evolution.apply_channel"),
    ("qdspin.evolution", "find_g_crossings", "evolution.find_g_crossings"),
    ("qdspin.measures", "discord_bounds", "measures.discord_bounds"),
    ("qdspin.measures", "concurrence", "measures.concurrence"),
    ("qdspin.measures", "g_ratio", "measures.g_ratio"),
    ("qdspin.linalg3", "max_eigenpair", "linalg3.max_eigenpair"),
    ("qdspin.states", "validate_density_matrix", "states.validate_density_matrix"),
    ("qdspin.states", "bloch_decompose", "states.bloch_decompose"),
    ("qdspin.states", "purity", "states.purity"),
    ("qdspin.states", "singlet_triplet_weights", "states.singlet_triplet_weights"),
    ("qdspin.states", "bell_diagonal_params", "states.bell_diagonal_params"),
    ("qdspin.magnetometry", "run_sweep", "magnetometry.run_sweep"),
    ("qdspin.magnetometry", "trajectory_for_field", "magnetometry.trajectory_for_field"),
    ("qdspin.magnetometry", "rescaled_integral", "magnetometry.rescaled_integral"),
    ("qdspin.magnetometry", "first_min_then_max", "magnetometry.first_min_then_max"),
    ("qdspin.magnetometry", "esd_time", "magnetometry.esd_time"),
    ("qdspin.magnetometry", "long_time_discord", "magnetometry.long_time_discord"),
)
# classes whose to_csv method is a CSV writer of the command line
CSV_WRITERS = (
    ("qdspin.channel", "ChannelTrajectory"),
    ("qdspin.evolution", "CorrelationTrajectory"),
    ("qdspin.magnetometry", "SweepTable"),
    ("qdspin.magnetometry", "CalibrationCurve"),
)
DIAGNOSTICS = ("states.purity", "states.singlet_triplet_weights", "states.bell_diagonal_params")
FEATURES = ("magnetometry.rescaled_integral", "magnetometry.first_min_then_max",
            "magnetometry.esd_time", "magnetometry.long_time_discord")
# results kept for the work counts derived after each op
KEEP_RESULTS = ("channel.compute_channel", "evolution.evolve")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.results: dict[str, list] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, fn, name: str):
        keep = self.results[name] if name in KEEP_RESULTS else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self.op, sid, parent, name, start, end))
            if keep is not None:
                keep.append(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "qdspin" or n.startswith("qdspin.")]
        for mod_name, attr, name in TARGETS:
            target = getattr(sys.modules.get(mod_name), attr, None)
            if target is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(target, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, wrapper)
        for mod_name, cls_name in CSV_WRITERS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            if cls is None or "to_csv" not in vars(cls):
                self.missing.append(f"{mod_name}.{cls_name}.to_csv")
                continue
            self._patch(cls, "to_csv", self._wrap(vars(cls)["to_csv"], "cli.to_csv"))

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        """Root span of one benchmark operation; spans recorded inside carry its op id."""
        self.op = op
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((op, sid, -1, name, start, end))

    def write(self, path: Path, header: list[str]) -> None:
        with open(path, "w") as f:
            for line in header:
                f.write(f"# {line}\n")
            f.write("op,span,parent,name,start_ns,end_ns\n")
            for row in self.spans:
                f.write(",".join(map(str, row)) + "\n")


class WorkCounts:
    """Channel and evolution work counts, read from the values the layers return."""

    def __init__(self) -> None:
        self.channel_calls = 0
        self.fast_pairs = 0
        self.slow_pairs = 0
        self.refine_calls = 0
        self.repeats = 0
        self.cp_worst_margin: float | None = None
        self.times_evolved = 0
        self.min_eigenvalue: float | None = None
        self._seen: set = set()

    def absorb(self, results: dict[str, list]) -> None:
        from qdspin.channel import verify_channel_cp

        for ch in results.get("channel.compute_channel", []):
            nodes = ch.m_count * ch.q_count
            n_fast = int(np.count_nonzero(ch.times <= ch.fast_term_cutoff_ns))
            self.channel_calls += 1
            self.fast_pairs += n_fast * nodes
            self.slow_pairs += (ch.times.size - n_fast) * nodes
            self.refine_calls += ch.times.size == 1
            key = (repr(ch.dot), hashlib.sha1(ch.times.tobytes()).hexdigest(), ch.m_count, ch.q_count)
            self.repeats += key in self._seen
            self._seen.add(key)
            margin = verify_channel_cp(ch).worst_margin
            self.cp_worst_margin = margin if self.cp_worst_margin is None else min(self.cp_worst_margin, margin)
        for tr in results.get("evolution.evolve", []):
            self.times_evolved += tr.times.size
            low = float(tr.min_eigenvalue.min())
            self.min_eigenvalue = low if self.min_eigenvalue is None else min(self.min_eigenvalue, low)
        for kept in results.values():
            kept.clear()  # in place: the wrappers append to these lists


def layer_times(spans) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Calls, inclusive time and self time (ns) per span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous in one thread, so children never overlap.
    """
    covered: dict[int, int] = defaultdict(int)
    for _, _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for _, sid, _, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        self_ns[name] += end - start - covered[sid]
    return calls, total, self_ns


def per_layer_metrics(spans, work: WorkCounts, csv_bytes: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    calls, total, self_ns = layer_times(spans)
    s = lambda *names: sum(self_ns[n] for n in names) / 1e9  # noqa: E731
    pairs = work.fast_pairs + work.slow_pairs
    chan = "channel.compute_channel"
    return {
        "channel.compute_channel.calls": (calls[chan], "count"),
        "channel.compute_channel.self_s": (s(chan), "s"),
        "channel.compute_channel.ns_per_pair": (self_ns[chan] / pairs if pairs else 0.0, "ns"),
        "channel.fast_pairs": (work.fast_pairs, "count"),
        "channel.slow_pairs": (work.slow_pairs, "count"),
        "channel.repeat_share": (work.repeats / work.channel_calls if work.channel_calls else 0.0, "ratio"),
        "channel.refine_calls": (work.refine_calls, "count"),
        "channel.build_quadrature.self_s": (s("channel.build_quadrature"), "s"),
        "channel.cp_worst_margin": (work.cp_worst_margin or 0.0, "1"),
        "evolution.evolve.calls": (calls["evolution.evolve"], "count"),
        "evolution.evolve.self_s": (s("evolution.evolve"), "s"),
        "evolution.evolve.us_per_time": (
            total["evolution.evolve"] / 1e3 / work.times_evolved if work.times_evolved else 0.0, "us"),
        "evolution.apply_channel.self_s": (s("evolution.apply_channel"), "s"),
        "evolution.find_g_crossings.self_s": (s("evolution.find_g_crossings"), "s"),
        "evolution.min_eigenvalue": (work.min_eigenvalue or 0.0, "1"),
        "measures.discord_bounds.calls": (calls["measures.discord_bounds"], "count"),
        "measures.discord_bounds.self_s": (s("measures.discord_bounds"), "s"),
        "measures.concurrence.self_s": (s("measures.concurrence"), "s"),
        "measures.g_ratio.self_s": (s("measures.g_ratio"), "s"),
        "linalg3.max_eigenpair.calls": (calls["linalg3.max_eigenpair"], "count"),
        "linalg3.max_eigenpair.self_s": (s("linalg3.max_eigenpair"), "s"),
        "states.validate_density_matrix.calls": (calls["states.validate_density_matrix"], "count"),
        "states.validate_density_matrix.self_s": (s("states.validate_density_matrix"), "s"),
        "states.bloch_decompose.self_s": (s("states.bloch_decompose"), "s"),
        "states.diagnostics.self_s": (s(*DIAGNOSTICS), "s"),
        "magnetometry.run_sweep.self_s": (s("magnetometry.run_sweep"), "s"),
        "magnetometry.trajectory_for_field.calls": (calls["magnetometry.trajectory_for_field"], "count"),
        "magnetometry.features.self_s": (s(*FEATURES), "s"),
        "cli.main.self_s": (s("cli.main"), "s"),
        "cli.to_csv.self_s": (s("cli.to_csv"), "s"),
        "cli.csv_bytes": (csv_bytes, "B"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
