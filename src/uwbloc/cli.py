"""Command-line entry points: design, locate, sweep, detect, cir.

Exit codes: 0 success, 2 configuration error (including a malformed or
invalid input file), 3 infeasible pulse optimization, 4 I/O failure
(including a missing or unreadable input file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable

from .channel import cir_to_csv, sample_cir, signature_from_csv
from .detection import DetectionThresholds, classify, estimate_transfer
from .pulses import DesignConfig, InfeasibleDesignError, design_pulses, pulse_set_to_json
from .simulate import (
    ConfigError,
    SimConfig,
    config_from_json,
    config_to_json,
    emit_csv,
    read_input,
    run_trial,
    sweep_snr,
    trial_seed,
)
from .spectrum import psd
from .waveform import waveform_from_csv, waveform_from_json, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


def _read_config(cls: type, path: str | None, **flags):
    """The ``cls`` config in the JSON file at ``path`` (the defaults without one).

    Each flag that was given (not None) is one more key of the JSON object,
    so its value is decoded and checked exactly like a file value. The
    file's object is decoded on its own first, so a malformed file value is
    rejected even where a flag replaces it.
    """
    given = {key: val for key, val in flags.items() if val is not None}

    def decode(obj):
        cfg = config_from_json(obj, cls)
        return config_from_json(obj | given, cls) if given else cfg

    return read_input(path, decode) if path else decode({})


def _finite(text: str) -> float:
    """argparse type of a threshold: NaN never compares true, and JSON has no inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _threshold(field: str) -> Callable[[str], float]:
    """argparse type of a ``DetectionThresholds`` field: finite, and a value the field accepts."""
    def threshold(text: str) -> float:
        value = _finite(text)
        try:
            DetectionThresholds(**{field: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value

    return threshold


def _seed(text: str) -> int:
    """argparse type of a seed that is not a config field: numpy seeds are >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _decode_waveform(value):
    """A waveform from a parsed JSON object or from CSV rows."""
    return waveform_from_json(value) if isinstance(value, dict) else waveform_from_csv(value)


def _cmd_design(args: argparse.Namespace) -> int:
    cfg = _read_config(DesignConfig, args.config, seed=args.seed)
    ps = design_pulses(cfg)
    # made only once the design succeeded, so an infeasible one leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "pulse_set.json").write_text(json.dumps(pulse_set_to_json(ps)))
    (out / "mask.json").write_text(json.dumps(config_to_json(cfg)["mask"], indent=2))

    labels = range(ps.pulse_count)
    write_csv(out / "pulses.csv", ["t"] + [f"pulse_{i}" for i in labels],
              zip(ps.pulses[0].times, *(p.samples for p in ps.pulses)))
    spectra = [psd(p, cfg.nfft) for p in ps.pulses]
    freq = spectra[0][0]
    write_csv(out / "psd_mask.csv",
              ["freq_hz"] + [f"psd_{i}_dbm_mhz" for i in labels] + ["mask_dbm_mhz"],
              zip(freq, *(dens for _, dens in spectra), cfg.mask.limit_at(freq)))

    print(json.dumps({
        "pulse_set": str(out / "pulse_set.json"),
        "energy_es": ps.energy_es,
        "effectiveness": ps.effectiveness.tolist(),
        "objective": ps.objective,
    }, indent=2))
    return EXIT_OK


def _cmd_locate(args: argparse.Namespace) -> int:
    # --snr is checked as a one-point grid, like sweep's --snr
    cfg = _read_config(SimConfig, args.config,
                       snr_grid_db=None if args.snr is None else [args.snr])
    snr = cfg.snr_grid_db[-1]
    seed = args.seed if args.seed is not None else trial_seed(cfg.master_seed, 0, 0)
    res = run_trial(cfg, snr, seed)
    out = {
        "snr_db": res.snr_db,
        "seed": seed,
        "truth": list(res.truth),
        "anchors": [a.id for a in cfg.anchors],
        "toa_s": list(res.toa_s),
        "range_m": list(res.range_m),
        "toa_err_s": list(res.toa_err_s),
        "range_err_m": list(res.range_err_m),
        "fix": None if res.fix is None else {
            "position": list(res.fix.position),
            "clock_bias_m": res.fix.clock_bias,
            "residual_rms_m": res.fix.residual_rms,
            "candidate_index": res.fix.candidate_index,
            "selection_rule": res.fix.selection_rule,
        },
        "failure": res.failure,
        "position_error_m": res.position_error_m,
    }
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _read_config(SimConfig, args.config, master_seed=args.seed, snr_grid_db=args.snr,
                       trials=args.trials, out_dir=args.out)
    result = sweep_snr(cfg)
    # made only once the sweep ran, so a rejected config or pulse set leaves no directory
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(result.rows, out / "sweep.csv")
    write_csv(out / "fixes.csv", ["trial", "snr_db", "x", "y", "z", "bias", "residual", "err_m"], (
        [res.trial_id, float(snr), *res.fix.position, res.fix.clock_bias,
         res.fix.residual_rms, res.position_error_m]
        for snr in sorted(result.trials) for res in result.trials[snr] if res.fix is not None))
    for row in result.rows:
        print(f"snr {row.snr_db:5.1f} dB  mean position error "
              f"{row.mean_position_error_m * 100:7.3f} cm  failures {row.fix_failure_rate:.2%}")
    print(f"wrote {out / 'sweep.csv'} and {out / 'fixes.csv'}")
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    thresholds = DetectionThresholds(
        attenuation_db=args.attenuation_threshold,
        nonlinearity_rad=args.nonlinearity_threshold,
    )
    if args.signature:
        sig = read_input(args.signature, signature_from_csv)
    else:
        if not (args.tx and args.rx):
            raise ConfigError("detect needs either --signature or both --tx and --rx")
        tx = read_input(args.tx, _decode_waveform)
        rx = read_input(args.rx, _decode_waveform)
        try:
            sig = estimate_transfer(tx, rx)
        except ValueError as exc:  # each file is valid, the pair is not
            raise ConfigError(f"{args.tx} and {args.rx}: {exc}") from exc
    print(json.dumps(config_to_json(classify(sig, thresholds)), indent=2))
    return EXIT_OK


def _cmd_cir(args: argparse.Namespace) -> int:
    cfg = _read_config(SimConfig, args.config)
    seed = args.seed if args.seed is not None else cfg.master_seed
    cir = sample_cir(cfg.channel, seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"cir_seed{seed}.csv"
    cir_to_csv(cir, path)
    print(f"wrote {path} ({len(cir.taps)} taps, delay spread {cir.delay_spread * 1e9:.1f} ns)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbloc",
        description="UWB pulse design, ranging/positioning simulation, and human detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimize an orthogonal mask-compliant pulse set")
    p.add_argument("--config", help="design config JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("locate", help="run one positioning trial, print verbose JSON")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--seed", type=_seed, help="trial seed")
    p.add_argument("--snr", type=float, help="SNR of the trial (dB)")
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("sweep", help="Monte-Carlo SNR sweep, write CSV tables")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--snr", type=float, nargs="+", help="SNR grid override (dB)")
    p.add_argument("--trials", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("detect", help="classify a medium from tx/rx waveforms or a signature")
    p.add_argument("--tx", help="transmitted waveform (CSV or JSON)")
    p.add_argument("--rx", help="received waveform (CSV or JSON)")
    p.add_argument("--signature", help="signature CSV (freq_hz,attenuation_db,phase_rad)")
    p.add_argument("--attenuation-threshold", type=_threshold("attenuation_db"),
                   default=DetectionThresholds.attenuation_db)
    p.add_argument("--nonlinearity-threshold", type=_threshold("nonlinearity_rad"),
                   default=DetectionThresholds.nonlinearity_rad)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("cir", help="dump one channel impulse response as CSV")
    p.add_argument("--config", help="simulation config JSON")
    p.add_argument("--seed", type=_seed, help="channel seed")
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_cir)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleDesignError as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
