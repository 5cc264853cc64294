"""Discrete-time model-free control laboratory.

Finite-time stable output filtering, ultra-local-model estimation, a
sliding-manifold tracking controller, and a closed-loop simulation harness
around an inverted pendulum on a cart.
"""

from ._backend import BACKEND
from .controller import (
    AdaptiveInfluence,
    ControllerConfig,
    FixedInfluence,
    TrackingState,
    control_rhs_general,
    control_rhs_second_order,
    influence_gain,
    schur_check,
    sliding_variable,
    solve_input,
)
from .core import (
    HolderGainParams,
    LyapunovRecursionSpec,
    forward_difference,
    gamma_ratio_bound,
    holder_gain,
    lyapunov_recursion,
)
from .harness import (
    CSV_HEADER,
    ExperimentConfig,
    RunLog,
    RunMetrics,
    compute_metrics,
    config_from_dict,
    config_to_dict,
    demo_config,
    read_config,
    read_log_csv,
    run_closed_loop,
    write_config,
    write_log_csv,
)
from .observers import (
    OutputObserverState,
    asymptotic_observer_step,
    fts_observer_step,
    steps_to_tolerance,
)
from .plants import (
    BumpNoiseStream,
    DivergenceError,
    NoiseModel,
    PendulumParams,
    PendulumState,
    SyntheticUlmParams,
    friction_forces,
    generate_desired_trajectory,
    pendulum_accel,
    rk4_advance,
    rk4_step,
    synthetic_ulm_plant_step,
)
from .ulm import (
    FIRST_ORDER,
    SECOND_ORDER,
    UlmConfig,
    UlmObserverState,
    first_order_step,
    reconstruct_f,
    second_order_step,
    ulm_predict,
)

__version__ = "0.1.0"
