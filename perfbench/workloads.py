"""Seeded workloads of the qdspin benchmark: inputs, operations and output checks.

A workload is a cycle of operations.  Operation i is a pure function of
(seed, i), so one seed always gives the same inputs; qdspin receives only
the generated fields and density matrices.  `Op.run` is the timed part;
`Op.check` and `Op.outputs` run after it, outside the timed interval.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import qdspin.cli
import qdspin.magnetometry
import qdspin.measures
import qdspin.states

DEFAULT_SEED = 0
REFERENCE_ATOL = 1e-12
RESCALE_PREFACTOR = 0.5 * (1.0 - math.sqrt(3.0) / 2.0)

EVOLVE_STATES = ("bell:psi-", "werner:p=0.33", "phase:gamma=2.35619449", "belldiag:a=0.4,b=0.4")
KINKED_STATE = "belldiag:a=0.4,b=0.4"
KINK_NS, KINK_TOL_NS = 4.67, 0.2
SWEEP_STATES = ("werner:p=0.33", "bell:psi-", "belldiag:a=0.4,b=0.4")
SWEEP_FIELDS = 2
LONGTIME_STATE = "bell:psi-"
# d_longtime averaged over 1500-2000 ns instead of qdspin's default
# 4000-6000 ns window, on a 0.1 ns dense step instead of 0.02 ns: the sweep
# then runs to t_max = 2000 ns (1476 times, 294x64 nodes, 964 of the times
# past the fast-term cutoff) in 3-4 s, so a run holds six operations with
# speed probes between them, and the slow-term branch does most of the
# channel work.
LONGTIME_CONFIG = {"longtime_window": [1500.0, 2000.0], "dt": 0.1}

# tolerances of the physics invariants
CP_TOL = 1e-9
ORDER_TOL = 1e-10
COINCIDE_TOL = 1e-9
PSD_TOL = 1e-8
UNIT_TOL = 1e-12


class OpFailed(Exception):
    """qdspin raised, returned a nonzero exit code or wrote no output."""


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _cli(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qdspin.cli.main(argv)
    if code != 0:
        raise OpFailed(f"qdspin {argv[0]} exited with {code}: {err.getvalue().strip()}")


def read_csv(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """Header echoes, column names and numeric cells (empty cells read as nan)."""
    headers: dict[str, str] = {}
    names: list[str] | None = None
    rows = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, val = line[2:].partition("=")
                headers[key] = val
            elif names is None:
                names = line.split(",")
            else:
                rows.append([float(x) if x else math.nan for x in line.split(",")])
    if names is None:
        raise OpFailed(f"{path.name} has no column header")
    return headers, names, np.array(rows, dtype=float).reshape(len(rows), len(names))


def _range_failures(label: str, values: np.ndarray, lo: float, hi: float) -> list[str]:
    bad = ~((values >= lo) & (values <= hi))
    if not bad.any():
        return []
    return [f"{label} outside [{lo:g}, {hi:g}] at {int(bad.sum())} rows (first {values[bad][0]!r})"]


def cp_failures(label: str, p: np.ndarray, c_abs: np.ndarray) -> list[str]:
    margin = 1.0 - p - c_abs
    if np.all(margin >= -CP_TOL):
        return []
    return [f"{label} CP margin 1-p-|c| = {float(np.nanmin(margin)):.3e} < -{CP_TOL:g}"]


def measure_failures(purity, ds_lo, ds_hi, conc) -> list[str]:
    """Invariants every evaluated two-qubit state satisfies."""
    out = _range_failures("purity", purity, 0.25 - UNIT_TOL, 1.0 + UNIT_TOL)
    if not np.all(ds_lo <= ds_hi + ORDER_TOL):
        out.append(f"ds_lo exceeds ds_hi by {float(np.nanmax(ds_lo - ds_hi)):.3e}")
    out += _range_failures("concurrence", conc, 0.0, 1.0 + UNIT_TOL)
    return out


def _column(names: list[str], table: np.ndarray, name: str) -> np.ndarray:
    if name not in names:
        raise OpFailed(f"output has no column {name!r}")
    return table[:, names.index(name)]


class Op:
    """One operation: `run` is timed, `check` and `outputs` are not."""

    states = 0     # two-qubit states whose measures the operation outputs
    fields = 0     # sweep rows the operation outputs
    files: dict[str, Path] = {}

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> dict[str, np.ndarray]:
        return {kind: read_csv(path)[2] for kind, path in self.files.items()}


class EvolveOp(Op):
    def __init__(self, state: str, b_field: float, workdir: Path, tag: str):
        self.state, self.b_field = state, b_field
        self.files = {"trajectory": workdir / f"{tag}-traj.csv", "channel": workdir / f"{tag}-chan.csv"}

    def run(self) -> None:
        _cli(["evolve", "--state", self.state, "--b", repr(self.b_field),
              "--out", str(self.files["trajectory"]), "--channel-out", str(self.files["channel"])])

    def check(self) -> list[str]:
        headers, names, traj = read_csv(self.files["trajectory"])
        _, chan_names, chan = read_csv(self.files["channel"])
        self.states = traj.shape[0]
        col = lambda n: _column(names, traj, n)  # noqa: E731
        chan_col = lambda n: _column(chan_names, chan, n)  # noqa: E731
        out = cp_failures("trajectory", col("p"), np.hypot(col("c_re"), col("c_im")))
        out += cp_failures("channel", chan_col("p"), np.hypot(chan_col("c_re"), chan_col("c_im")))
        out += measure_failures(col("purity"), col("ds_lo"), col("ds_hi"), col("concurrence"))
        if headers.get("b_tesla") != f"{self.b_field:.9g}":
            out.append(f"header b_tesla={headers.get('b_tesla')!r}, requested {self.b_field:.9g}")
        kinks = headers.get("kink_times_ns", "")
        times = [] if kinks == "none" else [float(x) for x in kinks.split(";")]
        if self.state == KINKED_STATE:
            if len(times) != 1 or abs(times[0] - KINK_NS) > KINK_TOL_NS:
                out.append(f"{self.state}: kinks {kinks!r}, expected one at {KINK_NS}+-{KINK_TOL_NS} ns")
        elif self.state == "bell:psi-" and times:
            out.append(f"bell:psi- must have no kink, header has {kinks!r}")
        return out


class SweepOp(Op):
    def __init__(self, metric: str, state: str, b_fields: list[float], workdir: Path, tag: str,
                 config: dict | None = None):
        self.metric, self.state, self.b_fields = metric, state, b_fields
        self.files = {"sweep": workdir / f"{tag}-sweep.csv"}
        self.fields = len(b_fields)
        self.trajectories: list = []
        self.config_args: list[str] = []
        if config is not None:
            path = workdir / f"{tag}-config.json"
            path.write_text(json.dumps(config))
            self.config_args = ["--config", str(path)]

    def run(self) -> None:
        self.trajectories = _capture.start()
        _cli(["sweep", *self.config_args, "--metric", self.metric, "--state", self.state,
              "--b", ",".join(repr(b) for b in self.b_fields), "--out", str(self.files["sweep"])])

    def check(self) -> list[str]:
        _, names, table = read_csv(self.files["sweep"])
        out = []
        b_col = _column(names, table, "B_T")
        if b_col.size != len(self.b_fields) or not np.allclose(b_col, self.b_fields, rtol=1e-15, atol=0.0):
            out.append(f"sweep rows {b_col.tolist()} do not match the requested fields {self.b_fields}")
        if self.metric == "M":
            out += _range_failures("M", _column(names, table, "M"), 1e-12, math.inf)
        else:
            out += _range_failures("d_longtime", _column(names, table, "d_longtime"), 0.0, RESCALE_PREFACTOR)
            t_end = LONGTIME_CONFIG["longtime_window"][1]
            if not all(math.isclose(tr.times[-1], t_end, rel_tol=1e-12) for tr in self.trajectories):
                out.append(f"trajectories do not end at the configured {t_end} ns")
        if len(self.trajectories) != len(self.b_fields):
            out.append(f"{len(self.trajectories)} trajectories for {len(self.b_fields)} fields")
        self.states = 0
        for tr in self.trajectories:
            self.states += tr.times.size
            out += cp_failures(f"B={tr.dot.b_field!r}", tr.p, np.abs(tr.c))
            out += measure_failures(tr.purity, tr.ds_lower, tr.ds_upper, tr.concurrence)
            if not np.all(tr.min_eigenvalue >= -PSD_TOL):
                out.append(f"evolved eigenvalue {float(tr.min_eigenvalue.min()):.3e} < -{PSD_TOL:g}")
        return out


class StatesOp(Op):
    """Ginibre, X and Bell-diagonal states through discord_bounds, concurrence and g_ratio."""

    GINIBRE, X_ZERO_BLOCH, X_GENERAL, BELL_DIAGONAL = 120, 20, 20, 40

    def __init__(self, rng: np.random.Generator):
        mats, kinds, params = [], [], []
        for _ in range(self.GINIBRE):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            mats.append(rho / np.trace(rho).real)
            kinds.append("ginibre")
            params.append(None)
        for zero_bloch in [True] * self.X_ZERO_BLOCH + [False] * self.X_GENERAL:
            mats.append(_x_state(rng, zero_bloch))
            kinds.append("x_zero_bloch" if zero_bloch else "x_general")
            params.append(None)
        for _ in range(self.BELL_DIAGONAL):
            a = rng.uniform(0.0, 0.5)
            b = a * rng.uniform(-1.0, 1.0)
            rho = np.diag([0.5 - a, a, a, 0.5 - a]).astype(complex)
            rho[1, 2] = rho[2, 1] = b
            mats.append(rho)
            kinds.append("bell_diagonal")
            params.append((a, b))
        self.mats, self.kinds, self.params = mats, kinds, params
        self.states = len(mats)
        self.result = np.empty((len(mats), 6))

    def run(self) -> None:
        measures = qdspin.measures
        two_qubit_state = qdspin.states.TwoQubitState
        for k, rho in enumerate(self.mats):
            st = two_qubit_state(rho)
            bounds = measures.discord_bounds(st)
            self.result[k] = (bounds.ds_lower, bounds.ds_upper, bounds.rescaled_lower,
                              bounds.rescaled_upper, measures.concurrence(st), measures.g_ratio(st))

    def check(self) -> list[str]:
        ds_lo, ds_hi, d_lo, d_hi, conc, g = self.result.T
        purity = np.array([float(np.sum(np.abs(m) ** 2)) for m in self.mats])
        out = measure_failures(purity, ds_lo, ds_hi, conc)
        out += _range_failures("rescaled discord", np.concatenate([d_lo, d_hi]), 0.0, RESCALE_PREFACTOR)
        for k, (kind, rho) in enumerate(zip(self.kinds, self.mats)):
            gap = ds_hi[k] - ds_lo[k]
            if kind == "x_zero_bloch" and gap >= COINCIDE_TOL:
                out.append(f"state {k} (X, zero local z): bound gap {gap:.3e}")
            if kind == "x_general":
                d = rho.diagonal().real
                ceiling = 0.25 * min((d[0] + d[1] - d[2] - d[3]) ** 2, (d[0] - d[1] + d[2] - d[3]) ** 2)
                if gap - ceiling >= COINCIDE_TOL:
                    out.append(f"state {k} (X): bound gap {gap:.3e} above min(x3,y3)^2/4 = {ceiling:.3e}")
            if kind.startswith("x_"):
                expected = _x_concurrence(rho)
                if abs(conc[k] - expected) > 1e-6:
                    out.append(f"state {k} (X): concurrence {conc[k]!r}, closed form {expected!r}")
            if kind == "bell_diagonal":
                ds, g_expected = _bell_diagonal_discord(*self.params[k])
                if gap >= COINCIDE_TOL or abs(ds_lo[k] - ds) > ORDER_TOL:
                    out.append(f"state {k} (Bell-diagonal): bounds ({ds_lo[k]!r}, {ds_hi[k]!r}), analytic {ds!r}")
                if not (math.isclose(g[k], g_expected, rel_tol=1e-12, abs_tol=1e-12)
                        or (math.isinf(g[k]) and math.isinf(g_expected))):
                    out.append(f"state {k} (Bell-diagonal): g {g[k]!r}, analytic {g_expected!r}")
        return out

    def outputs(self) -> dict[str, np.ndarray]:
        return {"measures": self.result.copy()}


def _x_state(rng: np.random.Generator, zero_bloch: bool) -> np.ndarray:
    if zero_bloch:
        # d0 + d2 = d1 + d3 zeroes the second qubit's local z component
        r0, r1 = rng.uniform(size=2)
        d = 0.5 * np.array([r0, r1, 1.0 - r0, 1.0 - r1])
    else:
        d = rng.dirichlet(np.ones(4))
    inner = math.sqrt(d[1] * d[2]) * rng.uniform() * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    outer = math.sqrt(d[0] * d[3]) * rng.uniform() * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    rho = np.diag(d).astype(complex)
    rho[1, 2], rho[2, 1] = inner, np.conj(inner)
    rho[0, 3], rho[3, 0] = outer, np.conj(outer)
    return rho


def _x_concurrence(rho: np.ndarray) -> float:
    d = rho.diagonal().real
    return 2.0 * max(0.0, abs(rho[1, 2]) - math.sqrt(d[0] * d[3]), abs(rho[0, 3]) - math.sqrt(d[1] * d[2]))


def _bell_diagonal_discord(a: float, b: float) -> tuple[float, float]:
    """Geometric discord and g of diag(1/2-a, a, a, 1/2-a) with coherence b."""
    denom = abs(1.0 - 4.0 * a)
    g = 2.0 * abs(b) / denom if denom > 0.0 else math.inf
    ds = 2.0 * b * b if g <= 1.0 else (0.5 - 2.0 * a) ** 2 + b * b
    return ds, g


class _TrajectoryCapture:
    """Keeps the trajectories a sweep computes so that `SweepOp.check` can audit them.

    Installed once per process at `qdspin.magnetometry.trajectory_for_field`,
    the attribute through which the sweep driver calls it; it costs one
    list append per field.
    """

    def __init__(self) -> None:
        self.kept: list = []
        self.installed = False

    def install(self) -> None:
        if self.installed:
            return
        original = qdspin.magnetometry.trajectory_for_field

        def trajectory_for_field(*args, **kwargs):
            traj = original(*args, **kwargs)
            self.kept.append(traj)
            return traj

        qdspin.magnetometry.trajectory_for_field = trajectory_for_field
        self.installed = True

    def start(self) -> list:
        self.kept = []
        return self.kept


_capture = _TrajectoryCapture()


class Workload:
    """A named cycle of operations generated from a seed."""

    def __init__(self, name: str, cycle: int, cycle_s: float, probes: int, probe_weight: float,
                 trace_ops: int, reference_ops: int):
        self.name, self.cycle, self.cycle_s = name, cycle, cycle_s
        self.probes = probes                # machine-speed probes after every operation (child.py)
        self.probe_weight = probe_weight    # exponent of the probe scale (child.py)
        self.trace_ops = trace_ops          # fixed operation set of a traced run
        self.reference_ops = reference_ops  # default-seed operations with a stored reference

    def ops_for(self, seconds: float) -> int:
        """Operations in a run of about `seconds`: whole cycles, at least one.

        The count comes from the cycle's wall time, untimed input generation,
        checks and probes included, on the reference machine (2 shared cores
        of an Intel Xeon, single-threaded BLAS), not from a clock read during
        the run, so every run of a given length does the same work and two
        commits are compared on identical operations.
        """
        return self.cycle * max(1, round(seconds / self.cycle_s))

    def op(self, seed: int, index: int, workdir: Path) -> Op:
        tag = f"op{index}"
        if self.name == "evolve_short":
            b = float(_rng(seed, index).uniform(0.09, 0.11))
            return EvolveOp(EVOLVE_STATES[index % len(EVOLVE_STATES)], b, workdir, tag)
        if self.name == "sweep_shared":
            # one field list per cycle, swept once for every state of the cycle
            fields = np.sort(_rng(seed, index // self.cycle).uniform(0.001, 0.1, size=SWEEP_FIELDS))
            state = SWEEP_STATES[index % len(SWEEP_STATES)]
            return SweepOp("M", state, [float(b) for b in fields], workdir, tag)
        if self.name == "sweep_longtime":
            b = float(_rng(seed, index).uniform(0.0002, 0.003))
            return SweepOp("longtime", LONGTIME_STATE, [b], workdir, tag, LONGTIME_CONFIG)
        if self.name == "measures_states":
            return StatesOp(_rng(seed, index))
        raise ValueError(f"unknown workload {self.name!r}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("evolve_short", cycle=len(EVOLVE_STATES), cycle_s=10.0, probes=12, probe_weight=0.5,
                 trace_ops=len(EVOLVE_STATES), reference_ops=len(EVOLVE_STATES)),
        Workload("sweep_shared", cycle=len(SWEEP_STATES), cycle_s=16.5, probes=25, probe_weight=0.5,
                 trace_ops=len(SWEEP_STATES), reference_ops=len(SWEEP_STATES)),
        Workload("sweep_longtime", cycle=1, cycle_s=3.5, probes=20, probe_weight=0.5,
                 trace_ops=1, reference_ops=1),
        Workload("measures_states", cycle=1, cycle_s=0.3, probes=1, probe_weight=1.0,
                 trace_ops=4, reference_ops=4),
    )
}


def warm_up(workdir: Path) -> None:
    """Untimed small calls that load every lazily built code path once."""
    _capture.install()
    _cli(["evolve", "--state", KINKED_STATE, "--b", "0.1", "--tmax", "1",
          "--out", str(workdir / "warm-traj.csv"), "--channel-out", str(workdir / "warm-chan.csv")])
    _cli(["sweep", "--metric", "M", "--state", "bell:psi-", "--b", "0.01,0.02", "--tmax", "1",
          "--out", str(workdir / "warm-sweep.csv")])
    StatesOp(np.random.default_rng(DEFAULT_SEED)).run()
    _capture.start()
