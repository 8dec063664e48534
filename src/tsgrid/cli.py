"""Command-line entry point.

Subcommands: generate, encode, decode, solve-ms, evaluate, perturb,
list-models.  Options resolve as flags over config file over defaults;
every run writes its fully resolved configuration into the output
directory so it can be replayed bit-exactly.  Randomized commands take an
explicit --seed or record the auto-chosen one in that snapshot.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path

from . import io
from .bounds import solve_ms_table
from .errors import ConfigurationError, TsgridError
from .evaluation import EvalConfig, PerturbationSpec, perturb, run_benchmark
from .generate import AugmentConfig, GeneratorConfig, sample_series
from .imagespace import SpaceParams, decode, denormalize, encode, normalize
from .rng import RngStream

OUTPUT_DIR_ENV = "TSGRID_OUTPUT_DIR"
THREADS_ENV = "TSGRID_THREADS"


def _parse_floats(text: str) -> tuple[float, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _load_config_file(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path:
        read = parser.read(path)
        if not read:
            raise TsgridError(f"config file not found: {path}")
    return parser


def _resolve(flag_value, file_cfg: configparser.ConfigParser, section: str, key: str, conv, default):
    if flag_value is not None:
        return flag_value
    if file_cfg.has_option(section, key):
        return conv(file_cfg.get(section, key))
    return default


# [generator] / [augment] keys accepted from config files
_GEN_FILE_KEYS = {
    "alpha": float,
    "length": int,
    "rwb_sigma": float,
    "pwb_k_max": int,
    "noise_sigma_eps": lambda s: None if s.lower() == "none" else float(s),
    "pwb_amp_range": _parse_floats,
    "pwb_logfreq_range": lambda s: None if s.lower() == "none" else _parse_floats(s),
    "lgb_logK_range": _parse_floats,
    "lgb_logr_range": _parse_floats,
    "lgb_mid_frac_range": _parse_floats,
    "twdb_a_range": _parse_floats,
    "twdb_b_range": _parse_floats,
    "periodic_behaviors": lambda s: tuple(v.strip() for v in s.split(",")),
    "trend_behaviors": lambda s: tuple(v.strip() for v in s.split(",")),
    "pwb_waveforms": lambda s: tuple(v.strip() for v in s.split(",")),
}

_AUG_FILE_KEYS = {
    "replicate": _parse_bool,
    "flip": _parse_bool,
    "smooth_detrend": _parse_bool,
    "perturb": _parse_bool,
    "probability": float,
    "replicate_max": int,
    "smooth_window": int,
}


def _generator_from(args, file_cfg: configparser.ConfigParser) -> GeneratorConfig:
    gen_kwargs = {}
    for key, conv in _GEN_FILE_KEYS.items():
        if file_cfg.has_option("generator", key):
            gen_kwargs[key] = conv(file_cfg.get("generator", key))
    aug_kwargs = {}
    for key, conv in _AUG_FILE_KEYS.items():
        if file_cfg.has_option("augment", key):
            aug_kwargs[key] = conv(file_cfg.get("augment", key))
    # flags win over file entries
    if getattr(args, "alpha", None) is not None:
        gen_kwargs["alpha"] = args.alpha
    if getattr(args, "length", None) is not None:
        gen_kwargs["length"] = args.length
    if getattr(args, "noise_sigma", None) is not None:
        gen_kwargs["noise_sigma_eps"] = args.noise_sigma
    if getattr(args, "augment_probability", None) is not None:
        aug_kwargs["probability"] = args.augment_probability
    if aug_kwargs:
        gen_kwargs["augment"] = AugmentConfig(**aug_kwargs)
    return GeneratorConfig(**gen_kwargs)


def _space_from(args, file_cfg: configparser.ConfigParser) -> SpaceParams:
    h = _resolve(getattr(args, "h", None), file_cfg, "space", "h", int, 128)
    ms = _resolve(getattr(args, "ms", None), file_cfg, "space", "ms", float, 3.5)
    return SpaceParams(h=h, ms=ms)


def _output_dir(args) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("tsgrid-out")


def _threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        setting, value = "--threads", args.threads
    elif os.environ.get(THREADS_ENV):
        setting, value = THREADS_ENV, os.environ[THREADS_ENV]
        try:
            value = int(value)
        except ValueError:
            raise ConfigurationError(f"{setting} must be a positive integer, got {value!r}") from None
    else:
        return 1
    if value < 1:
        raise ConfigurationError(f"{setting} must be a positive integer, got {value}")
    return value


def _pick_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int.from_bytes(os.urandom(8), "big")


def _write_snapshot(out_dir: Path, command: str, sections: dict[str, dict[str, object]]) -> None:
    parser = configparser.ConfigParser()
    for section, entries in sections.items():
        parser[section] = {}
        for key, value in entries.items():
            if isinstance(value, (tuple, list)):
                parser[section][key] = ",".join(str(v) for v in value)
            else:
                parser[section][key] = str(value)
    with io.atomic_write(out_dir / f"resolved_{command}.ini") as handle:
        parser.write(handle)


def _generator_snapshot(cfg: GeneratorConfig) -> dict[str, object]:
    return {
        "alpha": cfg.alpha,
        "length": cfg.length,
        "periodic_behaviors": cfg.periodic_behaviors,
        "trend_behaviors": cfg.trend_behaviors,
        "pwb_amp_range": cfg.pwb_amp_range,
        "pwb_logfreq_range": "none" if cfg.pwb_logfreq_range is None else cfg.pwb_logfreq_range,
        "pwb_k_max": cfg.pwb_k_max,
        "pwb_waveforms": cfg.pwb_waveforms,
        "rwb_sigma": cfg.rwb_sigma,
        "lgb_logK_range": cfg.lgb_logK_range,
        "lgb_logr_range": cfg.lgb_logr_range,
        "lgb_mid_frac_range": cfg.lgb_mid_frac_range,
        "twdb_a_range": cfg.twdb_a_range,
        "twdb_b_range": cfg.twdb_b_range,
        "noise_sigma_eps": "none" if cfg.noise_sigma_eps is None else cfg.noise_sigma_eps,
    }


def _augment_snapshot(cfg: AugmentConfig) -> dict[str, object]:
    return {
        "replicate": cfg.replicate,
        "flip": cfg.flip,
        "smooth_detrend": cfg.smooth_detrend,
        "perturb": cfg.perturb,
        "probability": cfg.probability,
        "replicate_max": cfg.replicate_max,
        "smooth_window": cfg.smooth_window,
    }


def cmd_generate(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _generator_from(args, file_cfg)
    seed = _pick_seed(args)
    threads = _threads(args)  # validated and recorded only: generation runs on one thread
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = args.start_stream

    def render(stream: int) -> dict:
        series = sample_series(cfg, RngStream(seed, stream))
        name = f"series_{stream:05d}.csv"
        io.write_series_csv(out_dir / name, series)
        return {
            "id": name,
            "seed": seed,
            "stream": stream,
            "hypothesis": series.tags.get("hypothesis", ""),
            "behavior": series.tags.get("behavior", ""),
            "length": series.length,
        }

    records = [render(stream) for stream in range(start, start + args.count)]
    io.write_manifest_csv(out_dir / "manifest.csv", records)
    _write_snapshot(
        out_dir,
        "generate",
        {
            "run": {"command": "generate", "count": args.count, "seed": seed, "start_stream": start, "threads": threads},
            "generator": _generator_snapshot(cfg),
            "augment": _augment_snapshot(cfg.augment),
        },
    )
    print(f"wrote {args.count} series and manifest.csv to {out_dir}")
    return 0


def cmd_encode(args) -> int:
    file_cfg = _load_config_file(args.config)
    space = _space_from(args, file_cfg)
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    for input_path in args.inputs:
        try:
            series = io.read_series_csv(input_path)
            stats = None
            if args.normalize_lookback is not None:
                series, stats = normalize(series, args.normalize_lookback)
            image = encode(series, space)
        except TsgridError as exc:
            raise TsgridError(f"{input_path}: {exc}") from exc
        meta = io.write_image(out_dir / Path(input_path).stem, image, stats)
        print(f"encoded {input_path} -> {meta}")
    _write_snapshot(
        out_dir,
        "encode",
        {
            "run": {
                "command": "encode",
                "inputs": ",".join(str(p) for p in args.inputs),
                "normalize_lookback": args.normalize_lookback if args.normalize_lookback is not None else "none",
            },
            "space": {"h": space.h, "ms": space.ms},
        },
    )
    return 0


def cmd_decode(args) -> int:
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    for meta_path in args.inputs:
        try:
            image, stats = io.read_image(meta_path)
            series = decode(image, allow_missing=args.allow_missing)
            if stats is not None:
                series = denormalize(series, stats)
        except TsgridError as exc:
            raise TsgridError(f"{meta_path}: {exc}") from exc
        target = out_dir / f"{Path(meta_path).stem}.decoded.csv"
        io.write_series_csv(target, series)
        print(f"decoded {meta_path} -> {target}")
    _write_snapshot(
        out_dir,
        "decode",
        {
            "run": {
                "command": "decode",
                "inputs": ",".join(str(p) for p in args.inputs),
                "allow_missing": args.allow_missing,
            }
        },
    )
    return 0


def cmd_solve_ms(args) -> int:
    file_cfg = _load_config_file(args.config)
    h_list = _resolve(args.h_list, file_cfg, "solve", "h_list", _parse_ints, (32, 64, 128, 256, 512))
    k_list = _resolve(args.k_list, file_cfg, "solve", "k_list", _parse_floats, (1.0, 1.5, 2.0))
    rows = solve_ms_table(h_list, k_list)
    lines = ["h,k,ms_star,residual"]
    for h, k, ms, res in rows:
        lines.append(f"{h},{k:g},{ms:.6f},{res:.3e}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    with io.atomic_write(out_dir / "solve_ms.csv") as handle:
        handle.write(text)
    _write_snapshot(
        out_dir,
        "solve-ms",
        {"run": {"command": "solve-ms"}, "solve": {"h_list": h_list, "k_list": k_list}},
    )
    return 0


def _parse_perturbation(text: str) -> PerturbationSpec:
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind == "gaussian_noise":
        return PerturbationSpec(kind=kind, noise_std=float(rest) if rest else 0.1)
    if kind == "missing":
        return PerturbationSpec(kind=kind, missing_probability=float(rest) if rest else 0.3)
    if kind == "harmonic":
        if rest:
            parts = [p.strip() for p in rest.split(",")]
            amp = float(parts[0]) if parts[0] else None
            freq = float(parts[1]) if len(parts) > 1 and parts[1] else None
            return PerturbationSpec(kind=kind, harmonic_amplitude=amp, harmonic_frequency=freq)
        return PerturbationSpec(kind=kind)
    raise TsgridError(f"unknown perturbation {text!r} (expected gaussian_noise[:std], harmonic[:amp,freq], missing[:p])")


def cmd_evaluate(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = EvalConfig(
        lookback=_resolve(args.lookback, file_cfg, "eval", "lookback", int, 512),
        horizons=_resolve(args.horizons, file_cfg, "eval", "horizons", _parse_ints, (96, 192, 336, 720)),
        rescale_factors=_resolve(args.betas, file_cfg, "eval", "rescale_factors", _parse_floats, (0.5, 0.66, 1.0, 1.5, 2.0)),
        stride=_resolve(args.stride, file_cfg, "eval", "stride", int, None),
    )
    space = _space_from(args, file_cfg)
    perturbations = tuple(_parse_perturbation(p) for p in (args.perturb or ()))
    seed = _pick_seed(args)
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.csv"

    report = run_benchmark(
        args.dataset,
        args.model,
        cfg,
        perturbations,
        seed=seed,
        space=space,
        report_path=report_path,
        verbose=True,
    )
    _write_snapshot(
        out_dir,
        "evaluate",
        {
            "run": {"command": "evaluate", "dataset": args.dataset, "model": args.model, "seed": seed},
            "eval": {
                "lookback": cfg.lookback,
                "horizons": cfg.horizons,
                "rescale_factors": cfg.rescale_factors,
                "stride": "none" if cfg.stride is None else cfg.stride,
            },
            "space": {"h": space.h, "ms": space.ms},
            "perturbations": {"specs": ";".join(p.label() for p in perturbations) or "none"},
        },
    )
    print(f"report written to {report_path}")
    return 0


def cmd_perturb(args) -> int:
    spec = PerturbationSpec(
        kind=args.kind,
        noise_std=args.noise_std if args.noise_std is not None else 0.1,
        harmonic_amplitude=args.harmonic_amplitude,
        harmonic_frequency=args.harmonic_frequency,
        missing_probability=args.missing_probability if args.missing_probability is not None else 0.3,
    )
    seed = _pick_seed(args)
    out_dir = _output_dir(args)
    out_dir.mkdir(parents=True, exist_ok=True)
    series = io.read_series_csv(args.dataset)
    result = perturb(series, spec, RngStream(seed))
    target = out_dir / f"{Path(args.dataset).stem}.perturbed.csv"
    io.write_series_csv(target, result)
    _write_snapshot(
        out_dir,
        "perturb",
        {"run": {"command": "perturb", "dataset": args.dataset, "spec": spec.label(), "seed": seed}},
    )
    print(f"perturbed {args.dataset} -> {target}")
    return 0


def cmd_list_models(args) -> int:
    from .forecasters import register_baselines

    handles = register_baselines()
    print(f"{'id':<24}{'space':<10}{'max_lookback':>14}{'max_horizon':>13}{'needs_future':>14}")
    for h in handles:
        print(f"{h.id:<24}{h.space:<10}{h.max_lookback:>14}{h.max_horizon:>13}{str(h.needs_future).lower():>14}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsgrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seeded: bool = False) -> None:
        p.add_argument("--config", help="INI config file ([section] with key = value lines)")
        p.add_argument("--output-dir", "-o", help=f"output directory (or ${OUTPUT_DIR_ENV})")
        if seeded:
            p.add_argument("--seed", type=int, help="random seed; auto-chosen and recorded if omitted")

    p = sub.add_parser("generate", help="synthesize series CSVs plus a manifest")
    add_common(p, seeded=True)
    p.add_argument("-n", "--count", type=int, required=True, help="number of series")
    p.add_argument("--alpha", type=float, help="probability of the periodic hypothesis")
    p.add_argument("--length", type=int, help="series length")
    p.add_argument("--noise-sigma", type=float, help="observation noise std (default: 5%% of signal std)")
    p.add_argument("--augment-probability", type=float, help="per-augmentation firing probability")
    p.add_argument("--start-stream", type=int, default=0, help="first stream index (default 0)")
    p.add_argument("--threads", type=int, help=f"accepted and recorded, no effect (or ${THREADS_ENV})")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("encode", help="encode series CSVs into per-channel graymaps")
    add_common(p)
    p.add_argument("inputs", nargs="+", help="series CSV files")
    p.add_argument("--h", type=int, help="vertical resolution (default 128)")
    p.add_argument("--ms", type=float, help="maximum scale (default 3.5)")
    p.add_argument("--normalize-lookback", type=int, help="standardize with stats of the first N samples")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode graymaps back into series CSVs")
    add_common(p)
    p.add_argument("inputs", nargs="+", help=".meta files written by encode")
    p.add_argument("--allow-missing", action="store_true", help="treat all-zero columns as missing samples")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("solve-ms", help="solve the optimal maximum scale over a grid")
    add_common(p)
    p.add_argument("--h-list", type=_parse_ints, help="comma-separated resolutions (default 32,64,128,256,512)")
    p.add_argument("--k-list", type=_parse_floats, help="comma-separated variance scales (default 1,1.5,2)")
    p.set_defaults(func=cmd_solve_ms)

    p = sub.add_parser("evaluate", help="benchmark a forecaster on a dataset CSV")
    add_common(p, seeded=True)
    p.add_argument("--dataset", required=True, help="input series CSV")
    p.add_argument("--model", required=True, help="forecaster id (see list-models)")
    p.add_argument("--lookback", type=int, help="lookback window (default 512)")
    p.add_argument("--horizons", type=_parse_ints, help="forecast horizons (default 96,192,336,720)")
    p.add_argument("--betas", type=_parse_floats, help="rescale factors (default 0.5,0.66,1,1.5,2)")
    p.add_argument("--stride", type=int, help="window stride (default: the horizon)")
    p.add_argument("--h", type=int, help="grid resolution for image-space models (default 128)")
    p.add_argument("--ms", type=float, help="grid maximum scale (default 3.5)")
    p.add_argument(
        "--perturb",
        action="append",
        help="scenario gaussian_noise[:std] | harmonic[:amp,freq] | missing[:p]; repeatable",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("perturb", help="write a perturbed copy of a dataset CSV")
    add_common(p, seeded=True)
    p.add_argument("--dataset", required=True, help="input series CSV")
    p.add_argument("--kind", required=True, choices=["gaussian_noise", "harmonic", "missing"])
    p.add_argument("--noise-std", type=float, help="gaussian_noise std (default 0.1)")
    p.add_argument("--harmonic-amplitude", type=float, help="harmonic amplitude (default 0.3 x std)")
    p.add_argument("--harmonic-frequency", type=float, help="harmonic frequency in cycles/sample")
    p.add_argument("--missing-probability", type=float, help="missing probability (default 0.3)")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("list-models", help="list registered forecasters")
    p.set_defaults(func=cmd_list_models)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TsgridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
