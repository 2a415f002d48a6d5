"""qdspin: hyperfine decoherence of quantum-dot spin-qubit pairs.

Simulates two non-interacting electron-spin qubits in GaAs dots under the
uniform-coupling hyperfine model, evaluates geometric/rescaled discord
bounds and concurrence along the decay, and extracts the magnetic-field
sensing indicators built on them.
"""

__version__ = "0.1.0"

from .channel import (
    BathQuadrature,
    ChannelTrajectory,
    build_quadrature,
    compute_channel,
    verify_channel_cp,
)
from .config import RunConfig
from .constants import (
    DotParameters,
    InvalidParameterError,
    QdspinError,
    ValidityWindowError,
)
from .evolution import (
    CorrelationTrajectory,
    KinkEvent,
    build_time_grid,
    evolve,
    find_extrema,
    find_g_crossings,
)
from .magnetometry import (
    CalibrationCurve,
    SweepTable,
    calibration_curve,
    channel_for_field,
    esd_time,
    invert_field,
    long_time_discord,
    rescaled_integral,
    run_sweep,
)
from .measures import (
    DiscordBounds,
    concurrence,
    discord_bounds,
    g_ratio,
    oracle_one_sided_discord,
    rescaled_discord,
)
from .states import (
    Bell,
    BellDiagonal,
    BlochForm,
    EntFamily,
    Ordering,
    PhaseFamily,
    Raw,
    TwoQubitState,
    Werner,
    bell_diagonal_params,
    bloch_decompose,
    load_raw_state,
    make_state,
    purity,
    singlet_triplet_weights,
)

__all__ = [name for name in dir() if not name.startswith("_")]
