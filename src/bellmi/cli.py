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


def _emit(text: str, out_file: Optional[str], open_mode: str = "w") -> None:
    if out_file is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_file, open_mode, encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out-file: {exc.strerror}") from None


def _build_spec(args) -> SettingsSpec:
    if args.settings_file is not None:
        spec = serialize.load_settings(_read(args.settings_file, "settings file"))
    else:
        spec = preset(args.preset)
    return _with_input_dist(spec, args)


def _with_input_dist(spec: SettingsSpec, args) -> SettingsSpec:
    """``spec`` with its p_xy replaced by ``--input-dist-file``, if given."""
    if args.input_dist_file is None:
        return spec
    p_xy = serialize.load_input_dist(_read(args.input_dist_file, "input-dist file"))
    return SettingsSpec(spec.alice_settings, spec.bob_settings, p_xy)


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
    target, extra = args.target, {}
    if target == "tb-uniform":
        est = analysis.mi_tb_quadrature(args.panels)
        bound, extra = 1.0, {"panels": args.panels}
    elif target == "gg-uniform":
        est, bound = analysis.mi_gg_uniform(), None
    elif target == "tb-finite":
        est = analysis.mi_finite_settings_tb(
            _build_spec(args), args.samples, RandomSource(args.seed), args.parallelism
        )
        bound, extra = 1.0, {"samples": args.samples, "seed": args.seed}
    else:
        model = serialize.load_model(_read(args.model_file, "model file"))
        a_vars = tuple(v for v in args.vars_a.split(",") if v)
        b_vars = (
            model.hidden_vars if args.vars_b is None
            else tuple(v for v in args.vars_b.split(",") if v)
        )
        est = analysis.mi_exact_finite(model, a_vars, b_vars)
        bound = model.table.entropy(("m",)) if "m" in model.table.variables else None
        extra = {"vars_a": list(a_vars), "vars_b": list(b_vars)}
    payload = {"target": target, **asdict(est), "bound": bound, **extra}
    _emit(serialize.json_text(payload), args.out_file)
    return EXIT_OK


# ----------------------------------------------------------------------
# transform
# ----------------------------------------------------------------------

def _resolve_corr_and_spec(args):
    if args.corr_file is not None:
        spec, corr = serialize.load_correlation(_read(args.corr_file, "correlation file"))
        return _with_input_dist(spec, args), corr
    spec = _build_spec(args)
    if args.corr == "pr-box":
        return spec, pr_box_conditional()
    return spec, analysis.exact_singlet_conditional(spec)


def cmd_transform(args) -> int:
    source = RandomSource(args.seed)
    if args.model in ("brans", "input-broadcast"):
        spec, corr = _resolve_corr_and_spec(args)
        if args.model == "brans":
            cs, report = transforms.brans_to_cs(corr, spec)
        else:
            cs, report = transforms.comm_to_cs(input_broadcast_build(corr, spec), spec)
        model_payload = serialize.model_payload(cs)
    else:
        spec = _build_spec(args)
        if args.model == "tb":
            sampler, report = transforms.comm_to_cs(
                TonerBaconModel(), spec, source=source, rounds=args.rounds,
                parallelism=args.parallelism,
            )
        else:
            sampler, report = transforms.det_to_cs(
                GisinGisinModel(), spec, source=source, rounds=args.rounds,
                floor=args.floor, parallelism=args.parallelism,
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
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named settings preset (default: chsh)")
    p.add_argument("--settings-file",
                   help="JSON settings file (alice_settings, bob_settings, p_xy)")
    p.add_argument("--input-dist-file",
                   help="JSON file overriding the joint input distribution p_xy")


def _refuse(message: str):
    """The ``error`` of every parser in the tree: argparse's refusals (a value
    it cannot convert, an unknown choice, a missing or unknown argument)
    raise :class:`ConfigError`, which ``main`` prints as one ``error:`` line,
    in place of a usage block."""
    raise ConfigError(message)


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
    p.add_argument("--rounds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--output", choices=("json", "csv"))
    p.add_argument("--out-file")

    p = sub.add_parser("mutual-info", help="compute I(x,y:lambda) for a target")
    p.add_argument(
        "--target",
        required=True,
        choices=("tb-uniform", "gg-uniform", "tb-finite", "exact-model-file"),
    )
    _add_settings_flags(p)
    p.add_argument("--model-file")
    p.add_argument("--vars-a", help="comma-separated first variable set (default: x,y)")
    p.add_argument("--vars-b", help="comma-separated second variable set (default: hidden vars)")
    p.add_argument("--samples", type=int, help="tb-finite only (default: 100000)")
    p.add_argument("--panels", type=int, help="tb-uniform only (default: 1024)")
    p.add_argument("--seed", type=int, help="tb-finite only (default: 0)")
    p.add_argument("--parallelism", type=int, help="tb-finite only: worker threads (default: 1)")
    p.add_argument("--out-file")

    p = sub.add_parser("transform", help="build a correlated-settings model + report")
    p.add_argument(
        "--model", required=True, choices=("tb", "gg", "brans", "input-broadcast")
    )
    _add_settings_flags(p)
    p.add_argument("--corr", choices=("quantum", "pr-box"),
                   help="target correlations for brans/input-broadcast (default: quantum)")
    p.add_argument("--corr-file", help="correlation-table JSON fixing settings and target")
    p.add_argument("--rounds", type=int,
                   help=f"tb/gg only: report rounds (default: {transforms.REPORT_ROUNDS})")
    p.add_argument("--seed", type=int)
    p.add_argument("--parallelism", type=int,
                   help="tb/gg only: report worker threads (default: 1)")
    p.add_argument("--floor", type=float,
                   help="gg only: abort when the double-click acceptance rate sits below this")
    p.add_argument("--out-file", help="model file destination (required)")

    p = sub.add_parser("verify", help="check Bell locality of an exact model file")
    p.add_argument("model_file")
    p.add_argument("--tol", type=float)
    p.add_argument("--out-file")

    for p in (parser, *sub.choices.values()):
        p.error = _refuse
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built on first use.  Parsing leaves a parser
    as it was, and building one costs about a millisecond per call."""
    return build_parser()


# a flag its mode cannot run without, in place of a default
REQUIRED = object()
_SETTINGS = {"preset": "chsh", "settings_file": None, "input_dist_file": None}
_SIMULATE = {**_SETTINGS, "rounds": 100_000, "seed": 0, "parallelism": 1, "output": "json",
             "out_file": None}
_REPORT = {**_SETTINGS, "rounds": transforms.REPORT_ROUNDS, "seed": 0, "parallelism": 1,
           "out_file": REQUIRED}
# brans and input-broadcast draw nothing, but take --seed as tb and gg do
_EXACT = {**_SETTINGS, "corr": "quantum", "corr_file": None, "seed": 0, "out_file": REQUIRED}
# (command, --target or --model value) -> {dest: default} of the optional
# flags that mode reads; verify has no mode, and its model file is positional
READS = {
    **{("simulate", model): _SIMULATE for model in SAMPLERS},
    ("mutual-info", "tb-uniform"): {"panels": 1024, "out_file": None},
    ("mutual-info", "gg-uniform"): {"out_file": None},
    ("mutual-info", "tb-finite"): {**_SETTINGS, "samples": 100_000, "seed": 0,
                                   "parallelism": 1, "out_file": None},
    ("mutual-info", "exact-model-file"): {"model_file": REQUIRED, "vars_a": "x,y",
                                          "vars_b": None, "out_file": None},
    ("transform", "tb"): _REPORT,
    ("transform", "gg"): {**_REPORT, "floor": transforms.DEFAULT_FLOOR},
    ("transform", "brans"): _EXACT,
    ("transform", "input-broadcast"): _EXACT,
    ("verify", None): {"model_file": REQUIRED, "tol": 1e-9, "out_file": None},
}
# pairs of flags that name one input twice; a correlation file fixes both
EXCLUSIVE = (("preset", "settings_file"), ("corr_file", "preset"),
             ("corr_file", "settings_file"), ("corr_file", "corr"))


def _check_flags(args) -> None:
    """Refuse a flag set where its mode reads nothing, two flags that name
    one input and a missing required flag, and give each flag left unset
    its mode's default: the one place that asks whether a flag was given."""
    def flag(dest):
        return "--" + dest.replace("_", "-")
    mode_dest = "target" if args.command == "mutual-info" else "model"
    mode = getattr(args, mode_dest, None)
    where, reads = f"{args.command} {flag(mode_dest)} {mode}", READS[args.command, mode]
    given = [dest for dest, value in vars(args).items()
             if value is not None and dest not in ("command", mode_dest)]
    for dest in given:
        if dest not in reads:
            raise ConfigError(f"{where} does not read {flag(dest)}")
    for first, second in EXCLUSIVE:
        if first in given and second in given:
            raise ConfigError(f"{flag(first)} and {flag(second)} are mutually exclusive")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            if default is REQUIRED:
                raise ConfigError(f"{where} needs {flag(dest)}")
            setattr(args, dest, default)


def main(argv: Optional[list] = None) -> int:
    # read at each call, not kept in the parser, so a replaced cmd_* (a
    # tracer's wrapper, a test's stand-in) is the function that runs
    commands = {
        "simulate": cmd_simulate,
        "mutual-info": cmd_mutual_info,
        "transform": cmd_transform,
        "verify": cmd_verify,
    }
    try:
        args = _parser().parse_args(argv)
        _check_flags(args)
        _emit("", args.out_file, "a")  # a bad destination fails before the work
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
