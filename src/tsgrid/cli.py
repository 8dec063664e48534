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
import functools
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

from . import io
from .bounds import SolveConfig, solve_ms_table
from .errors import ConfigurationError, TsgridError
from .evaluation import EvalConfig, PerturbationSpec, evaluate_series, perturb
from .forecasters import get_model, register_baselines
from .generate import AugmentConfig, GeneratorConfig, sample_series
from .imagespace import SpaceParams, encode, normalize
from .rng import RngStream

OUTPUT_DIR_ENV = "TSGRID_OUTPUT_DIR"
# glibc's mallopt parameters (malloc.h) and the values main sets for the process.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's ceiling on 64-bit
TRIM_THRESHOLD_BYTES = 16 << 20  # the smallest power of two under which no benchmark workload page-faults per pass


def _parse_value(tp, text: str):
    """Parse one INI value or flag as type ``tp``: ``none`` for an optional
    field, a comma list for a tuple."""
    text = text.strip()
    args = get_args(tp)
    if type(None) in args:
        if text.lower() == "none":
            return None
        (tp,) = (a for a in args if a is not type(None))
        args = get_args(tp)
    if args:
        values = text.split(",") if text else []
        if Ellipsis not in args and len(values) != len(args):
            raise ValueError(f"expected {len(args)} values, got {len(values)}")
        return tuple(_parse_value(args[0], v) for v in values)
    if tp is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {text!r}") from None
    return tp(text)


def _flag_type(tp):
    """An argparse ``type`` that parses a flag as ``_parse_value`` does; its error names the bad value."""

    def parse(text: str):
        try:
            return _parse_value(tp, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _load_config_file(path: str | None) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    if path:
        try:
            read = parser.read(path, encoding="utf-8")
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise TsgridError(f"{path}: {exc}") from exc
        if not read:
            raise TsgridError(f"config file not found: {path}")
    return parser


def _ini_fields(cls) -> dict[str, object]:
    """Fields of config dataclass ``cls`` that one INI value can hold, with
    their types, in field order: scalars, tuples of scalars and optional
    ones.  Nested dataclasses are left out."""
    hints = get_type_hints(cls)

    def plain(tp) -> bool:
        args = [a for a in get_args(tp) if a not in (type(None), Ellipsis)]
        return tp in (bool, int, float, str) or (bool(args) and all(plain(a) for a in args))

    return {f.name: hints[f.name] for f in fields(cls) if plain(hints[f.name])}


def _check_keys(file_cfg: configparser.ConfigParser, section: str, valid) -> None:
    """Reject a key of INI ``[section]`` that is not in ``valid``; INI keys are lowercased."""
    known = {name.lower() for name in valid}
    for key in file_cfg.options(section) if file_cfg.has_section(section) else ():
        if key not in known:
            raise ConfigurationError(f"[{section}]: unknown key {key!r}; valid keys: {', '.join(valid)}")


def _config_from(cls, flags: dict, file_cfg: configparser.ConfigParser, section: str, **nested):
    """Build config dataclass ``cls`` from INI ``[section]``.  A flag whose
    dest is the field name wins when it is not None; fields given neither
    way keep the dataclass default.  ``nested`` passes dataclass fields."""
    ini_fields = _ini_fields(cls)
    _check_keys(file_cfg, section, ini_fields)
    kwargs = dict(nested)
    for name, tp in ini_fields.items():
        if flags.get(name) is not None:
            kwargs[name] = flags[name]
        elif file_cfg.has_option(section, name):
            try:
                kwargs[name] = _parse_value(tp, file_cfg.get(section, name))
            except ValueError as exc:  # a bad value names its setting
                raise ConfigurationError(f"[{section}] {name}: {exc}") from None
    return cls(**kwargs)


def _snapshot(cfg) -> dict[str, object]:
    """The INI fields of a config dataclass instance, in field order."""
    return {name: getattr(cfg, name) for name in _ini_fields(type(cfg))}


def _output_dir(args) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path("tsgrid-out")


def _pick_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        RngStream(args.seed)  # rejects a seed outside 64 bits before any output is written
        return args.seed
    return int.from_bytes(os.urandom(8), "big")


def _write_snapshot(out_dir: Path, command: str, sections: dict[str, dict[str, object]]) -> None:
    parser = configparser.ConfigParser()
    for section, entries in sections.items():
        parser[section] = {}
        for key, value in entries.items():
            if value is None:
                value = "none"
            elif isinstance(value, (tuple, list)):
                value = ",".join(str(v) for v in value)
            parser[section][key] = str(value)
    with io.atomic_write(out_dir / f"resolved_{command}.ini") as handle:
        parser.write(handle)


def cmd_generate(args) -> int:
    file_cfg = _load_config_file(args.config)
    augment = _config_from(AugmentConfig, vars(args), file_cfg, "augment")
    cfg = _config_from(GeneratorConfig, vars(args), file_cfg, "generator", augment=augment)
    seed = _pick_seed(args)
    start = args.start_stream
    if args.count < 0:
        raise ConfigurationError(f"-n/--count must be nonnegative, got {args.count}")
    if start < 0 or start + args.count > 2**64:
        raise ConfigurationError(f"--start-stream must be nonnegative and leave -n streams below 2**64, got {start}")
    out_dir = _output_dir(args)

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
            "run": {"command": "generate", "count": args.count, "seed": seed, "start_stream": start},
            "generator": _snapshot(cfg),
            "augment": _snapshot(cfg.augment),
        },
    )
    print(f"wrote {args.count} series and manifest.csv to {out_dir}")
    return 0


def cmd_encode(args) -> int:
    space = _config_from(SpaceParams, vars(args), _load_config_file(args.config), "space")
    out_dir = _output_dir(args)
    encoded = []  # every input is read and encoded before the first write
    for input_path in args.inputs:
        series = io.read_series_csv(input_path)
        try:
            stats = None
            if args.normalize_lookback is not None:
                series, stats = normalize(series, args.normalize_lookback)
            encoded.append((input_path, encode(series, space), stats))
        except TsgridError as exc:
            raise TsgridError(f"{input_path}: {exc}") from exc
    for input_path, image, stats in encoded:
        meta = io.write_image(out_dir / Path(input_path).stem, image, stats)
        print(f"encoded {input_path} -> {meta}")
    _write_snapshot(
        out_dir,
        "encode",
        {
            "run": {
                "command": "encode",
                "inputs": ",".join(str(p) for p in args.inputs),
                "normalize_lookback": args.normalize_lookback,
            },
            "space": _snapshot(space),
        },
    )
    return 0


def cmd_decode(args) -> int:
    out_dir = _output_dir(args)
    decoded = []  # every input is read and decoded before the first write
    for meta_path in args.inputs:
        image, stats = io.read_image(meta_path)
        try:
            decoded.append((meta_path, io.decoded_series_csv(image, stats, args.allow_missing)))
        except TsgridError as exc:
            raise TsgridError(f"{meta_path}: {exc}") from exc
    for meta_path, text in decoded:
        target = out_dir / f"{Path(meta_path).stem}.decoded.csv"
        with io.atomic_write(target) as handle:
            handle.write(text)
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
    cfg = _config_from(SolveConfig, vars(args), _load_config_file(args.config), "solve")
    rows = solve_ms_table(cfg.h_list, cfg.k_list)
    lines = ["h,k,ms_star,residual"]
    for h, k, ms, res in rows:
        lines.append(f"{h},{k:g},{ms:.6f},{res:.3e}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out_dir = _output_dir(args)
    with io.atomic_write(out_dir / "solve_ms.csv") as handle:
        handle.write(text)
    _write_snapshot(
        out_dir,
        "solve-ms",
        {"run": {"command": "solve-ms"}, "solve": _snapshot(cfg)},
    )
    return 0


def _parse_perturbation(text: str) -> PerturbationSpec:
    try:
        return PerturbationSpec.parse(text)
    except ValueError as exc:
        raise TsgridError(f"--perturb {text!r}: {exc}") from exc


def cmd_evaluate(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _config_from(EvalConfig, vars(args), file_cfg, "eval")
    space = _config_from(SpaceParams, vars(args), file_cfg, "space")
    perturbations = tuple(_parse_perturbation(p) for p in (args.perturb or ()))
    seed = _pick_seed(args)
    model = get_model(args.model)
    truth = io.read_series_csv(args.dataset)
    report = evaluate_series(truth, model, cfg, perturbations, seed=seed, dataset=Path(args.dataset).stem, space=space)
    aggregates = report.aggregates()
    with_windows = {(r.dataset, r.horizon, r.scenario) for r in report.rows if r.windows}
    for agg in aggregates:
        prefix = f"{agg.dataset} horizon={agg.horizon} scenario={agg.scenario}"
        if agg.mse is None:
            masked = (agg.dataset, agg.horizon, agg.scenario) in with_windows
            print(f"{prefix}: skipped ({'every target masked' if masked else 'series too short'})")
        else:
            print(f"{prefix}: ReMSE={agg.mse:.6f} ReMAE={agg.mae:.6f} windows={agg.windows}")
    out_dir = _output_dir(args)
    report_path = out_dir / "report.csv"
    io.write_report_csv(report_path, report.rows, aggregates)
    _write_snapshot(
        out_dir,
        "evaluate",
        {
            "run": {"command": "evaluate", "dataset": args.dataset, "model": args.model, "seed": seed},
            "eval": _snapshot(cfg),
            "space": _snapshot(space),
            "perturbations": {"specs": ";".join(p.label() for p in perturbations) or "none"},
        },
    )
    print(f"report written to {report_path}")
    return 0


def cmd_perturb(args) -> int:
    spec = _parse_perturbation(args.perturb)
    seed = _pick_seed(args)
    out_dir = _output_dir(args)
    series = io.read_series_csv(args.dataset)
    result = perturb(series, spec, RngStream(seed))
    target = out_dir / f"{Path(args.dataset).stem}.perturbed.csv"
    io.write_series_csv(target, result)
    _write_snapshot(
        out_dir,
        "perturb",
        {"run": {"command": "perturb", "dataset": args.dataset, "perturb": spec.label(), "seed": seed}},
    )
    print(f"perturbed {args.dataset} -> {target}")
    return 0


def cmd_list_models(args) -> int:
    handles = register_baselines()
    print(f"{'id':<24}{'space':<10}{'max_lookback':>14}{'max_horizon':>13}{'needs_future':>14}")
    for h in handles:
        print(f"{h.id:<24}{h.space:<10}{h.max_lookback:>14}{h.max_horizon:>13}{str(h.needs_future).lower():>14}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(prog="tsgrid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seeded: bool = False, configured: bool = True) -> None:
        if configured:
            p.add_argument("--config", help="INI config file ([section] with key = value lines)")
        p.add_argument("--output-dir", "-o", help=f"output directory (or ${OUTPUT_DIR_ENV})")
        if seeded:
            p.add_argument("--seed", type=int, help="random seed; auto-chosen and recorded if omitted")

    p = sub.add_parser("generate", help="synthesize series CSVs plus a manifest")
    add_common(p, seeded=True)
    p.add_argument("-n", "--count", type=int, required=True, help="number of series")
    p.add_argument("--alpha", type=float, help="probability of the periodic hypothesis")
    p.add_argument("--length", type=int, help="series length")
    p.add_argument(
        "--noise-sigma", type=float, dest="noise_sigma_eps", metavar="NOISE_SIGMA",
        help="observation noise std (default: 5%% of signal std)",
    )
    p.add_argument(
        "--augment-probability", type=float, dest="probability", metavar="AUGMENT_PROBABILITY",
        help="per-augmentation firing probability",
    )
    p.add_argument("--start-stream", type=int, default=0, help="first stream index (default 0)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("encode", help="encode series CSVs into per-channel graymaps")
    add_common(p)
    p.add_argument("inputs", nargs="+", help="series CSV files")
    p.add_argument("--h", type=int, help="vertical resolution (default 128)")
    p.add_argument("--ms", type=float, help="maximum scale (default 3.5)")
    p.add_argument("--normalize-lookback", type=int, help="standardize with stats of the first N samples")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode graymaps back into series CSVs")
    add_common(p, configured=False)
    p.add_argument("inputs", nargs="+", help=".meta files written by encode")
    p.add_argument("--allow-missing", action="store_true", help="treat all-zero columns as missing samples")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("solve-ms", help="solve the optimal maximum scale over a grid")
    add_common(p)
    p.add_argument(
        "--h-list", type=_flag_type(tuple[int, ...]), help="comma-separated resolutions (default 32,64,128,256,512)"
    )
    p.add_argument(
        "--k-list", type=_flag_type(tuple[float, ...]), help="comma-separated variance scales (default 1,1.5,2)"
    )
    p.set_defaults(func=cmd_solve_ms)

    p = sub.add_parser("evaluate", help="benchmark a forecaster on a dataset CSV")
    add_common(p, seeded=True)
    p.add_argument("--dataset", required=True, help="input series CSV")
    p.add_argument("--model", required=True, help="forecaster id (see list-models)")
    p.add_argument("--lookback", type=int, help="lookback window (default 512)")
    p.add_argument("--horizons", type=_flag_type(tuple[int, ...]), help="forecast horizons (default 96,192,336,720)")
    p.add_argument(
        "--betas", type=_flag_type(tuple[float, ...]), dest="rescale_factors", metavar="BETAS",
        help="rescale factors (default 0.5,0.66,1,1.5,2)",
    )
    p.add_argument("--stride", type=int, help="window stride (default: the horizon)")
    p.add_argument("--h", type=int, help="grid resolution for image-space models (default 128)")
    p.add_argument("--ms", type=float, help="grid maximum scale (default 3.5)")
    p.add_argument(
        "--perturb", action="append", metavar="SPEC", help=f"scenario {PerturbationSpec.forms()}; repeatable"
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("perturb", help="write a perturbed copy of a dataset CSV")
    add_common(p, seeded=True, configured=False)
    p.add_argument("--dataset", required=True, help="input series CSV")
    p.add_argument("--perturb", required=True, metavar="SPEC", help=f"scenario {PerturbationSpec.forms()}")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("list-models", help="list registered forecasters")
    p.set_defaults(func=cmd_list_models)

    return parser


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc keep freed memory in the process for the next allocation.

    By default glibc gives each large temporary its own ``mmap`` and trims
    the heap when its free top grows past 128 KiB, so every evaluation block
    gets its arrays back from the kernel as fresh zero-filled pages.  Both
    thresholds are set: setting either one turns off glibc's adaptive
    threshold.  A no-op where the C library is not glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TsgridError, ValueError, OSError, MemoryError) as exc:  # a rescale set can ask for too much
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
