"""Constructor-level validation across the configuration dataclasses."""

import pytest

from tsgrid import (
    AugmentConfig,
    ConfigurationError,
    EvalConfig,
    GeneratorConfig,
    InputError,
    PerturbationSpec,
    SpaceParams,
    SpectralPrior,
    TimeSeries,
)


def test_generator_config_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        GeneratorConfig(alpha=-0.1)
    with pytest.raises(ConfigurationError):
        GeneratorConfig(alpha=1.1)


def test_generator_config_rejects_bad_length_and_pools():
    with pytest.raises(ConfigurationError):
        GeneratorConfig(length=0)
    with pytest.raises(ConfigurationError, match="length must be at least 2, got 1"):
        GeneratorConfig(length=1)
    with pytest.raises(ConfigurationError):
        GeneratorConfig(periodic_behaviors=())
    with pytest.raises(ConfigurationError):
        GeneratorConfig(trend_behaviors=("rwb", "nope"))
    with pytest.raises(ConfigurationError):
        GeneratorConfig(periodic_behaviors=("rwb",))  # trend mode in the periodic pool


def test_generator_config_rejects_inverted_intervals():
    with pytest.raises(ConfigurationError):
        GeneratorConfig(pwb_amp_range=(5.0, 0.5))
    with pytest.raises(ConfigurationError):
        GeneratorConfig(twdb_a_range=(1.0, -1.0))
    # degenerate (pinning) intervals are allowed
    GeneratorConfig(pwb_amp_range=(2.0, 2.0))


def test_generator_config_rejects_bad_scalars():
    with pytest.raises(ConfigurationError):
        GeneratorConfig(rwb_sigma=0.0)
    with pytest.raises(ConfigurationError):
        GeneratorConfig(pwb_k_max=0)
    with pytest.raises(ConfigurationError):
        GeneratorConfig(noise_sigma_eps=-0.5)
    with pytest.raises(ConfigurationError):
        GeneratorConfig(pwb_waveforms=("sine", "sawtooth"))
    with pytest.raises(ConfigurationError):
        GeneratorConfig(ifftb_priors=())


def test_spectral_prior_validation():
    with pytest.raises(ConfigurationError):
        SpectralPrior(kind="white")
    with pytest.raises(ConfigurationError):
        SpectralPrior(gamma_range=(2.0, 1.0))
    with pytest.raises(ConfigurationError):
        SpectralPrior(scale=0.0)


def test_augment_config_validation():
    with pytest.raises(ConfigurationError):
        AugmentConfig(probability=1.5)
    with pytest.raises(ConfigurationError):
        AugmentConfig(replicate_max=1)
    with pytest.raises(ConfigurationError):
        AugmentConfig(smooth_window=4)  # even
    with pytest.raises(ConfigurationError):
        AugmentConfig(smooth_window=1)


def test_space_params_validation():
    with pytest.raises(ConfigurationError):
        SpaceParams(h=1)
    with pytest.raises(ConfigurationError):
        SpaceParams(ms=0.0)
    with pytest.raises(ConfigurationError):
        SpaceParams(ms=float("inf"))


def test_eval_config_validation():
    with pytest.raises(ConfigurationError):
        EvalConfig(lookback=0)
    with pytest.raises(ConfigurationError):
        EvalConfig(horizons=())
    with pytest.raises(ConfigurationError):
        EvalConfig(horizons=(96, 0))
    with pytest.raises(ConfigurationError):
        EvalConfig(rescale_factors=(1.0, -2.0))
    with pytest.raises(ConfigurationError):
        EvalConfig(stride=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_eval_config_rejects_non_finite_rescale_factors(bad):
    with pytest.raises(ConfigurationError, match=f"rescale factors must be positive and finite, got \\(1.0, {bad}\\)"):
        EvalConfig(rescale_factors=(1.0, bad))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "field, message",
    [
        ("noise_std", "noise std must be nonnegative and finite"),
        ("harmonic_amplitude", "harmonic amplitude must be nonnegative and finite"),
        ("harmonic_frequency", "harmonic frequency must be positive and finite"),
    ],
)
def test_perturbation_spec_rejects_non_finite_parameters(field, message, bad):
    kind = "gaussian_noise" if field == "noise_std" else "harmonic"
    with pytest.raises(ConfigurationError, match=f"{message}, got {bad}"):
        PerturbationSpec(kind=kind, **{field: bad})


def test_time_series_validation():
    import numpy as np

    with pytest.raises(InputError):
        TimeSeries(np.array([[np.nan, 1.0]]))
    with pytest.raises(InputError):
        TimeSeries(np.zeros((0, 4)))
    with pytest.raises(InputError):
        TimeSeries(np.zeros((1, 4)), np.zeros((1, 5), dtype=bool))
    with pytest.raises(InputError):
        TimeSeries(np.zeros((2, 2, 2)))
