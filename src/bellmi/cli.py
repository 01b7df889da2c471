"""Command-line entry point.

Subcommands: ``simulate`` (Monte Carlo correlation tables), ``mutual-info``
(the information measures), ``transform`` (build correlated-settings models
and reports), and ``verify`` (the Bell-locality check on a model file).

All randomness flows from ``--seed``; outputs carry no timestamps and do
not echo the parallelism degree, so a command line repeated with the same
seed produces identical bytes at any parallelism.

Exit codes: 0 success, 1 verification failed, 2 configuration or parse
error, 3 internal inconsistency, 4 acceptance-rate floor breached.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict
from typing import Optional

from . import analysis, serialize, transforms
from .errors import (
    AcceptanceFloorError,
    ConfigError,
    InternalConsistencyError,
    ValidationError,
)
from .models import (
    PRESETS,
    GisinGisinModel,
    SettingsSpec,
    TonerBaconModel,
    input_broadcast_build,
    pr_box_conditional,
    preset,
)
from .sphere import RandomSource

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3
EXIT_FLOOR = 4


def _read(path: str, kind: str) -> str:
    """The text at ``path``; errors name ``kind``, since a path can be long."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{kind}: not UTF-8 text ({exc})") from None
    except OSError as exc:
        raise ConfigError(f"{kind}: {exc.strerror}") from None


def _emit(text: str, out_file: Optional[str]) -> None:
    if out_file is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_file, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out-file: {exc.strerror}") from None


def _build_spec(args) -> SettingsSpec:
    if args.settings_file is not None and args.preset is not None:
        raise ConfigError("--preset and --settings-file are mutually exclusive")
    if args.settings_file is not None:
        spec = serialize.load_settings(_read(args.settings_file, "settings file"))
    else:
        spec = preset(args.preset or "chsh")
    return _with_input_dist(spec, args)


def _with_input_dist(spec: SettingsSpec, args) -> SettingsSpec:
    """``spec`` with its p_xy replaced by ``--input-dist-file``, if given."""
    if args.input_dist_file is None:
        return spec
    p_xy = serialize.load_input_dist(_read(args.input_dist_file, "input-dist file"))
    return SettingsSpec(spec.alice_settings, spec.bob_settings, p_xy)


def _reject_set(args, flags, why: str) -> None:
    """Raise :class:`ConfigError` naming the first of ``flags`` that is set."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ConfigError(f"{why}; {flag} conflicts")


# the models whose rounds ``simulate`` samples, by ``--model`` name
SAMPLERS = {"tb": TonerBaconModel, "gg": GisinGisinModel}


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def cmd_simulate(args) -> int:
    spec = _build_spec(args)
    model = SAMPLERS[args.model]()
    est = analysis.estimate_correlations(
        model,
        spec,
        args.rounds,
        RandomSource(args.seed),
        parallelism=args.parallelism,
    )
    quantum = analysis.exact_singlet_conditional(spec)
    payload = serialize.correlation_payload(
        est, model=args.model, seed=args.seed, quantum=quantum
    )
    if args.output == "csv":
        _emit(serialize.correlation_csv(payload), args.out_file)
    else:
        _emit(serialize.json_text(payload), args.out_file)
    return EXIT_OK


# ----------------------------------------------------------------------
# mutual-info
# ----------------------------------------------------------------------

def cmd_mutual_info(args) -> int:
    target = args.target
    if target != "tb-finite":
        _reject_set(args, ("--preset", "--settings-file", "--input-dist-file"),
                    f"--target {target} reads no settings")
    if target != "exact-model-file":
        _reject_set(args, ("--model-file", "--vars-a", "--vars-b"),
                    f"--target {target} reads no model file")
    if target != "tb-finite":
        _reject_set(args, ("--samples", "--seed", "--parallelism"),
                    f"--target {target} draws no samples")
    if target != "tb-uniform":
        _reject_set(args, ("--panels",), f"--target {target} takes no panel count")
    extra = {}
    if target == "tb-uniform":
        panels = 1024 if args.panels is None else args.panels
        est = analysis.mi_tb_quadrature(panels)
        bound, extra = 1.0, {"panels": panels}
    elif target == "gg-uniform":
        est, bound = analysis.mi_gg_uniform(), None
    elif target == "tb-finite":
        spec = _build_spec(args)
        samples = 100_000 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        parallelism = 1 if args.parallelism is None else args.parallelism
        est = analysis.mi_finite_settings_tb(spec, samples, RandomSource(seed), parallelism)
        bound, extra = 1.0, {"samples": samples, "seed": seed}
    elif target == "exact-model-file":
        if not args.model_file:
            raise ConfigError("--target exact-model-file needs --model-file")
        model = serialize.load_model(_read(args.model_file, "model file"))
        vars_a = "x,y" if args.vars_a is None else args.vars_a
        a_vars = tuple(v for v in vars_a.split(",") if v)
        b_vars = (
            model.hidden_vars if args.vars_b is None
            else tuple(v for v in args.vars_b.split(",") if v)
        )
        est = analysis.mi_exact_finite(model, a_vars, b_vars)
        bound = model.table.entropy(("m",)) if "m" in model.table.variables else None
        extra = {"vars_a": list(a_vars), "vars_b": list(b_vars)}
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown target {target!r}")
    payload = {"target": target, **asdict(est), "bound": bound, **extra}
    _emit(serialize.json_text(payload), args.out_file)
    return EXIT_OK


# ----------------------------------------------------------------------
# transform
# ----------------------------------------------------------------------

def _resolve_corr_and_spec(args):
    if args.corr_file is not None:
        _reject_set(args, ("--settings-file", "--preset", "--corr"),
                    "--corr-file carries its own settings and target")
        spec, corr = serialize.load_correlation(_read(args.corr_file, "correlation file"))
        return _with_input_dist(spec, args), corr
    spec = _build_spec(args)
    if args.corr == "pr-box":
        return spec, pr_box_conditional()
    return spec, analysis.exact_singlet_conditional(spec)


def cmd_transform(args) -> int:
    if not args.out_file:
        raise ConfigError("transform needs --out-file for the model file")
    if args.model != "gg":
        _reject_set(args, ("--floor",), f"--model {args.model} has no acceptance floor")
    source = RandomSource(args.seed)
    if args.model in ("brans", "input-broadcast"):
        _reject_set(args, ("--rounds", "--parallelism"),
                    f"--model {args.model} runs no Monte Carlo report")
        spec, corr = _resolve_corr_and_spec(args)
        if args.model == "brans":
            cs, report = transforms.brans_to_cs(corr, spec)
        else:
            cs, report = transforms.comm_to_cs(input_broadcast_build(corr, spec), spec)
        model_payload = serialize.model_payload(cs)
    else:
        _reject_set(args, ("--corr", "--corr-file"),
                    f"--model {args.model} always reproduces the singlet")
        spec = _build_spec(args)
        rounds = transforms.REPORT_ROUNDS if args.rounds is None else args.rounds
        parallelism = 1 if args.parallelism is None else args.parallelism
        if args.model == "tb":
            sampler, report = transforms.comm_to_cs(
                TonerBaconModel(), spec, source=source, rounds=rounds,
                parallelism=parallelism,
            )
        else:
            floor = transforms.DEFAULT_FLOOR if args.floor is None else args.floor
            sampler, report = transforms.det_to_cs(
                GisinGisinModel(), spec, source=source, rounds=rounds, floor=floor,
                parallelism=parallelism,
            )
        model_payload = serialize.sampler_payload(sampler, spec, seed=args.seed)
    _emit(serialize.json_text(model_payload), args.out_file)
    _emit(serialize.json_text(asdict(report)), None)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args) -> int:
    model = serialize.load_model(_read(args.model_file, "model file"))
    report = analysis.verify_bell_local(model, tol=args.tol)
    _emit(serialize.json_text(asdict(report)), args.out_file)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


# ----------------------------------------------------------------------
# parser wiring
# ----------------------------------------------------------------------

def _add_settings_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=sorted(PRESETS), default=None,
                   help="named settings preset (default: chsh)")
    p.add_argument("--settings-file", default=None,
                   help="JSON settings file (alice_settings, bob_settings, p_xy)")
    p.add_argument("--input-dist-file", default=None,
                   help="JSON file overriding the joint input distribution p_xy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellmi",
        description=(
            "Bell-local models with correlated measurement settings: "
            "simulation, transforms, and mutual-information accounting."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="estimate a correlation table by Monte Carlo")
    p.add_argument("--model", required=True, choices=tuple(SAMPLERS))
    _add_settings_flags(p)
    p.add_argument("--rounds", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--output", choices=("json", "csv"), default="json")
    p.add_argument("--out-file", default=None)

    p = sub.add_parser("mutual-info", help="compute I(x,y:lambda) for a target")
    p.add_argument(
        "--target",
        required=True,
        choices=("tb-uniform", "gg-uniform", "tb-finite", "exact-model-file"),
    )
    _add_settings_flags(p)
    p.add_argument("--model-file", default=None)
    p.add_argument("--vars-a", default=None,
                   help="comma-separated first variable set (default: x,y)")
    p.add_argument("--vars-b", default=None,
                   help="comma-separated second variable set (default: hidden vars)")
    p.add_argument("--samples", type=int, default=None,
                   help="tb-finite only (default: 100000)")
    p.add_argument("--panels", type=int, default=None, help="tb-uniform only (default: 1024)")
    p.add_argument("--seed", type=int, default=None, help="tb-finite only (default: 0)")
    p.add_argument("--parallelism", type=int, default=None,
                   help="tb-finite only: worker threads (default: 1)")
    p.add_argument("--out-file", default=None)

    p = sub.add_parser("transform", help="build a correlated-settings model + report")
    p.add_argument(
        "--model", required=True, choices=("tb", "gg", "brans", "input-broadcast")
    )
    _add_settings_flags(p)
    p.add_argument("--corr", choices=("quantum", "pr-box"), default=None,
                   help="target correlations for brans/input-broadcast (default: quantum)")
    p.add_argument("--corr-file", default=None,
                   help="correlation-table JSON fixing settings and target")
    p.add_argument("--rounds", type=int, default=None,
                   help=f"tb/gg only: report rounds (default: {transforms.REPORT_ROUNDS})")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallelism", type=int, default=None,
                   help="tb/gg only: report worker threads (default: 1)")
    p.add_argument("--floor", type=float, default=None,
                   help="gg only: abort when the double-click acceptance rate sits below this")
    p.add_argument("--out-file", default=None, help="model file destination (required)")

    p = sub.add_parser("verify", help="check Bell locality of an exact model file")
    p.add_argument("model_file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out-file", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use.  Parsing leaves a parser
    as it was, and building one costs about a millisecond per call."""
    return build_parser()


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    # read at each call, not kept in the parser, so a replaced cmd_* (a
    # tracer's wrapper, a test's stand-in) is the function that runs
    commands = {
        "simulate": cmd_simulate,
        "mutual-info": cmd_mutual_info,
        "transform": cmd_transform,
        "verify": cmd_verify,
    }
    try:
        return commands[args.command](args)
    except AcceptanceFloorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLOOR
    except InternalConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ConfigError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
