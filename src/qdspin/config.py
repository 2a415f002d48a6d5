"""Run configuration, the small spec parsers and the CSV file format.

Every CSV qdspin writes goes through `write_csv`, so `header_lines` and
the cell rules below are the whole output format.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .constants import DotParameters, InvalidParameterError
from .states import (
    Bell,
    BellDiagonal,
    EntFamily,
    PhaseFamily,
    StateSpec,
    Werner,
    load_raw_state,
)

NORMALIZE_MODES = ("none", "initial", "half")
DEFAULT_M_WINDOW = (0.0, 20.0)
DEFAULT_LONGTIME_WINDOW = (4000.0, 6000.0)
MAX_FIELD_POINTS = 100_000  # fields a start:stop:step range may expand to
# the metric names a sweep accepts; "all" extracts every metric
METRIC_SETS = {
    "M": ("M",),
    "g-extrema": ("g-extrema",),
    "esd": ("esd",),
    "longtime": ("longtime",),
    "all": ("M", "g-extrema", "esd", "kinks", "longtime"),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """An int or float inside the finite float range."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


@dataclass
class RunConfig:
    """Everything a reproducible run needs; defaults reproduce the GaAs setup.

    The material defaults are `DotParameters`' own, and `build_time_grid`
    takes its grid defaults from here, so each is written once.
    """

    a_total: float = DotParameters.a_total
    n_nuclei: float = DotParameters.n_nuclei
    i_nuclear: float = DotParameters.i_nuclear
    g_factor: float = DotParameters.g_factor
    state: str = "bell:psi-"
    b_fields: list[float] = field(default_factory=lambda: [0.0])
    t_max: float = 20.0
    dt: float = 0.02
    dt_long: float = 2.0
    dense_prefix: float = 50.0
    m_nodes: int | None = None
    q_nodes: int | None = None
    normalize: str = "none"
    m_window: list[float] = field(default_factory=lambda: list(DEFAULT_M_WINDOW))
    longtime_window: list[float] = field(default_factory=lambda: list(DEFAULT_LONGTIME_WINDOW))
    metric: str = "M"
    out: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        def require(ok: bool, name: str, what: str) -> None:
            if not ok:
                raise InvalidParameterError(f"{name} must be {what}, got {getattr(self, name)!r}")

        for name in ("a_total", "n_nuclei", "i_nuclear", "g_factor"):
            require(_is_real(getattr(self, name)), name, "a finite number")
        for name in ("t_max", "dt", "dt_long"):
            value = getattr(self, name)
            require(_is_real(value) and value > 0, name, "finite and positive")
        require(_is_real(self.dense_prefix) and self.dense_prefix >= 0, "dense_prefix",
                "finite and non-negative")
        require(isinstance(self.b_fields, (list, tuple)) and all(map(_is_real, self.b_fields)),
                "b_fields", "a list of finite numbers")
        for name in ("m_window", "longtime_window"):
            value = getattr(self, name)
            require(isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value))
                    and 0 <= value[0] < value[1],
                    name, "a [start, stop] pair of finite numbers with 0 <= start < stop")
        for name in ("m_nodes", "q_nodes"):
            value = getattr(self, name)
            require(value is None or (_is_int(value) and value >= 3), name, "an integer of at least 3, or null")
        require(self.workers is None or (_is_int(self.workers) and self.workers >= 1),
                "workers", "a positive integer or null")
        require(isinstance(self.state, str), "state", "a state spec string")
        require(self.out is None or isinstance(self.out, str), "out", "a path string or null")
        for name, choices in (("normalize", NORMALIZE_MODES), ("metric", tuple(METRIC_SETS))):
            value = getattr(self, name)
            require(isinstance(value, str) and value in choices, name, f"one of {choices}")
        # the material parameters' own range checks, at the strongest field
        self.dot(max(self.b_fields, key=abs, default=0.0))

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidParameterError(f"unknown config keys {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise InvalidParameterError(f"malformed config JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidParameterError(f"config JSON must be an object, got {type(data).__name__}")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise InvalidParameterError(f"cannot read config file {str(path)!r}: {exc.strerror}") from exc
        return cls.from_json(text)

    def with_overrides(self, **overrides) -> "RunConfig":
        """Apply non-None flag values over this config (flags win)."""
        clean = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **clean)

    def dot(self, b_field: float) -> DotParameters:
        return DotParameters(
            a_total=self.a_total,
            n_nuclei=self.n_nuclei,
            i_nuclear=self.i_nuclear,
            b_field=b_field,
            g_factor=self.g_factor,
        )


def parse_state_spec(text: str) -> StateSpec:
    """Parse CLI state specifications.

    Forms: bell:psi-|psi+|phi-|phi+, werner:p=0.33,
    belldiag:a=0.4,b=0.4, phase:gamma=1.5707963,
    entfam:a=0.25,alpha=0,beta=0, raw:<path.json|path.csv>.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()

    def kv(defaults: dict[str, float]) -> dict[str, float]:
        out = dict(defaults)
        if rest.strip():
            for item in rest.split(","):
                key, _, val = item.partition("=")
                key = key.strip()
                if key not in out:
                    raise InvalidParameterError(f"unknown parameter {key!r} in state spec {text!r}")
                try:
                    out[key] = float(val)
                except ValueError as exc:
                    raise InvalidParameterError(f"bad number {val!r} in state spec {text!r}") from exc
        return out

    if kind == "bell":
        return Bell(rest.strip().lower() or "psi-")
    if kind == "werner":
        return Werner(p=kv({"p": 1.0})["p"])
    if kind == "belldiag":
        params = kv({"a": 0.5, "b": 0.5, "b_im": 0.0})
        return BellDiagonal(a=params["a"], b=complex(params["b"], params["b_im"]))
    if kind == "phase":
        return PhaseFamily(gamma=kv({"gamma": 3.141592653589793})["gamma"])
    if kind == "entfam":
        params = kv({"a": 0.25, "alpha": 0.0, "beta": 0.0})
        return EntFamily(a=params["a"], alpha=params["alpha"], beta=params["beta"])
    if kind == "raw":
        from .states import Raw

        return Raw(load_raw_state(rest.strip()).rho)
    raise InvalidParameterError(
        f"unknown state kind {kind!r}; expected bell, werner, belldiag, phase, entfam or raw"
    )


def parse_b_values(text: str) -> list[float]:
    """Parse field lists: 'start:stop:step' (inclusive), comma list, or single value (Tesla)."""
    text = text.strip()
    if not text:
        raise InvalidParameterError("empty field specification")

    def number(part: str) -> float:
        try:
            value = float(part)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise InvalidParameterError(f"field value {part.strip()!r} in {text!r} is not a finite number")
        return value

    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParameterError(f"field range must be start:stop:step, got {text!r}")
        start, stop, step = map(number, parts)
        if step <= 0:
            raise InvalidParameterError(f"field step must be positive, got {step}")
        span = (stop - start) / step
        if not (math.isfinite(span) and round(span) < MAX_FIELD_POINTS):
            raise InvalidParameterError(
                f"field range {text!r} holds more than MAX_FIELD_POINTS = {MAX_FIELD_POINTS} fields"
            )
        n = int(round(span))
        if n < 0:
            raise InvalidParameterError(f"field range {text!r} is empty")
        values = [start + k * step for k in range(n + 1)]
        if values and values[-1] > stop + 1e-12:
            values.pop()
        return values
    return [number(p) for p in text.split(",") if p.strip() != ""]


def header_lines(config: RunConfig, extra: dict | None = None) -> list[str]:
    """Comment header: config echo plus version; fields in both T and mT.

    The output path and worker count are excluded: they cannot affect
    results, and the byte-identity contract covers runs that differ only
    in them.
    """
    from . import __version__

    echo = {k: v for k, v in config.to_dict().items() if k not in ("out", "workers")}
    lines = [f"qdspin_version={__version__}", f"config={json.dumps(echo, sort_keys=True)}"]
    b_t = ",".join(f"{b:.9g}" for b in config.b_fields)
    b_mt = ",".join(f"{1e3 * b:.9g}" for b in config.b_fields)
    lines.append(f"b_tesla={b_t}")
    lines.append(f"b_mt={b_mt}")
    for key, val in (extra or {}).items():
        lines.append(f"{key}={val}")
    return lines


def _cells(column: Sequence) -> tuple[list[str], list]:
    """One column's format specs and values: strings as given, numbers as .17g, NaN and None empty."""
    if not isinstance(column, np.ndarray) and all(isinstance(v, str) for v in column):
        return ["%s"] * len(column), list(column)
    values = np.asarray(column, dtype=float)
    specs, cells = ["%.17g"] * values.size, values.tolist()
    for k in np.flatnonzero(np.isnan(values)).tolist():
        specs[k], cells[k] = "%s", ""
    return specs, cells


def write_csv(path: str | Path, header_lines: Sequence[str] | None,
              columns: Mapping[str, Sequence]) -> None:
    """Write `# ` header lines, the column names and the rows of `columns`.

    The text goes to a temporary file beside `path` that replaces it only
    once complete, so a failed write leaves any previous file untouched.
    An OS error on the path (a name too long, a directory that is not
    writable) is an InvalidParameterError that names it.
    """
    lines = [f"# {h}" for h in header_lines or ()]
    lines.append(",".join(columns))
    if columns:
        # the whole table is one format string applied once to its raveled cells
        specs, cells = zip(*map(_cells, columns.values()))
        if cells[0]:
            lines.append("\n".join(map(",".join, zip(*specs))) % tuple(chain.from_iterable(zip(*cells))))
    text = "\n".join(lines) + "\n"
    target = Path(path)
    # the temporary name is cut so that any name the file system takes still leaves room for it
    tmp = target.with_name(f".{target.name[:200]}.{os.getpid()}.tmp")
    try:
        if target.exists() and not target.is_file():  # a directory, pipe or device cannot be swapped in
            raise InvalidParameterError(f"output path {str(path)!r} is not a regular file")
        try:
            with open(tmp, "w") as f:
                f.write(text)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise InvalidParameterError(f"output path {str(path)!r} cannot be written: {exc.strerror or exc}") from exc
