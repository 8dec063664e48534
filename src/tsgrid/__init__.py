"""tsgrid: synthetic series generation, a binary-grid signal codec with
transport-distance metrics, reconstruction-error bounds, and a
rescale-based forecast evaluation harness."""

from .bounds import (
    SEBoundInput,
    SolveConfig,
    bound_convergence_profile,
    mc_system_error,
    ms_residual,
    optimal_ms,
    se_bound,
    solve_ms_table,
    truncation_floor,
)
from .errors import (
    CapabilityError,
    ConfigurationError,
    EvaluationError,
    InputError,
    LookbackOverflow,
    StructuralError,
    TsgridError,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    PerturbationSpec,
    ReportRow,
    evaluate_series,
    perturb,
    remetrics,
    tsi_rescale,
)
from .forecasters import (
    ForecasterHandle,
    TemporalMask,
    detect_period,
    forecast,
    get_model,
    register_baselines,
)
from .generate import (
    AugmentConfig,
    GeneratorConfig,
    WaveParams,
    augment,
    gen_ifftb,
    gen_lgb,
    gen_pwb,
    gen_rwb,
    gen_twdb,
    sample_series,
    sample_wave_params,
    synthesize_from_spectrum,
    wave_sum,
)
from .imagespace import (
    BinaryImageTensor,
    NormStats,
    SoftImageTensor,
    SpaceParams,
    decode,
    denormalize,
    emd,
    encode,
    kld,
    loss,
    normalize,
    preprocess,
    quantize_values,
    soft_decode,
    value_to_row,
)
from .rng import RngStream
from .series import TimeSeries, from_1d, linear_resample

__version__ = "0.1.0"
