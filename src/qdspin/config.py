"""Run configuration: JSON files, flag overrides, and the small spec parsers."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .constants import DotParameters, InvalidParameterError, PhysicalConstants
from .measures import UpperPairing
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


@dataclass
class RunConfig:
    """Everything a reproducible run needs; defaults reproduce the GaAs setup."""

    a_total: float = 83.0
    n_nuclei: float = 1.5e6
    i_nuclear: float = 1.5
    g_factor: float = 0.44
    state: str = "bell:psi-"
    b_fields: list[float] = field(default_factory=lambda: [0.0])
    t_max: float = 20.0
    dt: float = 0.02
    dt_long: float = 2.0
    dense_prefix: float = 50.0
    m_nodes: int | None = None
    q_nodes: int | None = None
    normalize: str = "none"
    upper_pairing: str = "printed"
    drop_zeeman_phase: bool = True
    m_window: list[float] = field(default_factory=lambda: [0.0, 20.0])
    longtime_window: list[float] = field(default_factory=lambda: [4000.0, 6000.0])
    metric: str = "M"
    out: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.normalize not in NORMALIZE_MODES:
            raise InvalidParameterError(f"normalize must be one of {NORMALIZE_MODES}, got {self.normalize!r}")
        if self.upper_pairing not in ("printed", "swapped"):
            raise InvalidParameterError(f"upper_pairing must be 'printed' or 'swapped', got {self.upper_pairing!r}")
        for name in ("t_max", "dt", "dt_long"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise InvalidParameterError(f"{name} must be finite and positive, got {value!r}")

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
            constants=PhysicalConstants(g_factor=self.g_factor),
        )

    @property
    def pairing(self) -> UpperPairing:
        return UpperPairing(self.upper_pairing)


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
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidParameterError(f"field range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise InvalidParameterError(f"field step must be positive, got {step}")
        n = int(round((stop - start) / step))
        if n < 0:
            raise InvalidParameterError(f"field range {text!r} is empty")
        values = [start + k * step for k in range(n + 1)]
        if values and values[-1] > stop + 1e-12:
            values.pop()
        return values
    return [float(p) for p in text.split(",") if p.strip() != ""]


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
