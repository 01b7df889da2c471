"""Constructions turning other model classes into correlated-settings models.

Three conversions are supported:

- :func:`comm_to_cs` absorbs a communication model's conversation into the
  hidden variable, lambda = (mu, m).  For finite models this is an exact
  table construction with exact mutual-information accounting; for the
  one-bit singlet model it yields a sampled model plus Monte Carlo checks.
  Either way I(x,y:lambda) is bounded by the message entropy H(m).
- :func:`det_to_cs` post-selects a detection model on both detectors
  clicking; its Monte Carlo report keeps only the double-click rounds,
  which conditions on that event exactly (no density reweighting).
- :func:`brans_to_cs` builds the settings-fixing model of a target table,
  whose hidden variable determines settings and outcomes (I = H(x,y)).

The two sampled conversions share one Monte Carlo report (:func:`_sampled_cs`,
one :func:`analysis.estimate_correlations` run); the two exact ones share one
exact report (:func:`_exact_report`).  Each returns the model together with a
:class:`TransformReport` recording reproduction deviations and the
information bound where available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import analysis
from .errors import (
    AcceptanceFloorError,
    ConfigError,
    InternalConsistencyError,
    ValidationError,
)
from .models import (
    OUTCOME_LABELS,
    ConditionalTable,
    ExactCSModel,
    FiniteCommModel,
    GisinGisinModel,
    SampledCSModel,
    SettingsSpec,
    TonerBaconModel,
    brans_build,
)
from .sphere import RandomSource, sample_uniform_sphere
from .table import FiniteDistribution

# Default Monte Carlo effort for the report's reproduction checks.
REPORT_ROUNDS = 200_000

# Default acceptance floor of det_to_cs and of ``transform --floor``.
DEFAULT_FLOOR = 1e-6


@dataclass(frozen=True)
class TransformReport:
    """Outcome of a model transform.

    ``corr_deviation`` is the max-norm gap between the target and reproduced
    P(a,b|x,y); ``inputs_deviation`` the same for P(x,y).  ``mi_value`` is
    I(x,y:lambda) where exactly computable, and ``mi_bound`` the message
    entropy H(m) where defined.  ``extras`` carries run metadata such as
    Monte Carlo round counts or acceptance rates.
    """

    source: str
    corr_deviation: Optional[float]
    inputs_deviation: Optional[float]
    mi_value: Optional[float] = None
    mi_bound: Optional[float] = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("corr_deviation", "inputs_deviation"):
            v = getattr(self, name)
            if v is not None and v < 0.0:
                raise ValidationError(f"{name} must be nonnegative, got {v!r}")
        if self.mi_value is not None and self.mi_bound is not None:
            if self.mi_value > self.mi_bound + 1e-10:
                raise InternalConsistencyError(
                    f"I(x,y:lambda) = {self.mi_value!r} exceeds the message "
                    f"entropy bound H(m) = {self.mi_bound!r}"
                )


def _exact_report(
    cs: ExactCSModel,
    spec: SettingsSpec,
    target: ConditionalTable,
    source: str,
    mi_bound: Optional[float],
    **extras,
) -> TransformReport:
    """Exact reproduction deviations and I(x,y:lambda) of a finite model
    built from ``spec`` to reproduce ``target``.  Input cells without mass
    reproduce nothing and are skipped."""
    p_xy = cs.table.marginal(("x", "y"))
    return TransformReport(
        source=source,
        corr_deviation=_corr_deviation(cs.table.marginal(("x", "y", "a", "b")), target),
        inputs_deviation=float(np.max(np.abs(p_xy - spec.p_xy))),
        mi_value=analysis.mi_exact_finite(cs).value,
        mi_bound=mi_bound,
        extras={"exact": True, **extras},
    )


def _comm_to_cs_exact(model: FiniteCommModel, spec: SettingsSpec):
    spec._require_finite()
    n_a, n_b = spec.n_alice, spec.n_bob
    p_xy = spec.p_xy
    messages: list = []
    entries = []
    for x in range(n_a):
        for y in range(n_b):
            for mu, w_mu in zip(model.mu_labels, model.mu_weights):
                w = float(p_xy[x, y] * w_mu)
                if w <= 0.0:
                    continue
                m = model.conversation(x, y, mu)
                if m not in messages:
                    messages.append(m)
                a = model.alice(x, mu, m)
                b = model.bob(y, mu, m)
                entries.append(((a, b, x, y, mu, m), w))
    variables = [
        ("a", OUTCOME_LABELS),
        ("b", OUTCOME_LABELS),
        ("x", tuple(range(n_a))),
        ("y", tuple(range(n_b))),
        ("mu", model.mu_labels),
        ("m", tuple(messages)),
    ]
    cs = ExactCSModel(
        table=FiniteDistribution.from_entries(variables, entries),
        hidden_vars=("mu", "m"),
        certificate=(
            "deterministic communication replay: lambda = (mu, m) fixes "
            "a through (x, mu, m) and b through (y, mu, m)"
        ),
    )
    report = _exact_report(
        cs, spec, model.target, model.name, cs.table.entropy(("m",)),
        mu_support=len(model.mu_labels),
    )
    return cs, report


def brans_to_cs(corr: ConditionalTable, spec: SettingsSpec):
    """The settings-fixing model of :func:`brans_build` with its exact report.

    Returns ``(cs_model, report)``; the report has no message-entropy bound.
    """
    cs = brans_build(corr, spec)
    return cs, _exact_report(
        cs, spec, corr, "brans", None, lambda_support=len(cs.table.labels("lam"))
    )


def _random_pair_spec(gen: np.random.Generator, pairs: int) -> SettingsSpec:
    """Finite spec whose cells are ``pairs`` random (x_i, y_i) pairs."""
    xs = sample_uniform_sphere(gen, pairs)
    ys = sample_uniform_sphere(gen, pairs)
    p = np.zeros((pairs, pairs))
    np.fill_diagonal(p, 1.0 / pairs)
    return SettingsSpec.finite(xs, ys, p)


def _sampled_cs(
    model: Union[TonerBaconModel, GisinGisinModel],
    spec: SettingsSpec,
    source: RandomSource,
    rounds: int,
    floor: float,
    *,
    kind: str,
    mi_bound: Optional[float],
):
    """Sampled model of ``model`` plus its Monte Carlo report.

    The report is one :func:`analysis.estimate_correlations` run of
    ``rounds`` rounds, which keeps the rounds whose batch ``kept`` mask is
    set; it checks them against the singlet prediction on the spec's own
    cells, or on eight random setting pairs for the continuous spec.  Fewer
    than ``floor * rounds`` kept rounds raise :class:`AcceptanceFloorError`;
    a floor outside (0, 1] raises :class:`ConfigError`.
    """
    if not 0.0 < floor <= 1.0:  # NaN fails too
        raise ConfigError(f"acceptance floor must lie in (0, 1], got {floor!r}")
    cs = SampledCSModel(
        kind=kind,
        spec=spec,
        hidden_names=model.hidden_names,
        certificate=model.certificate,
    )

    s_spec, s_est = source.split(2)
    if spec.is_finite:
        check_spec = spec
    else:
        check_spec = _random_pair_spec(s_spec.generator(), 8)
    est = analysis.estimate_correlations(model, check_spec, rounds, s_est)
    kept = est.kept_per_cell.sum()
    if kept < floor * rounds:
        raise AcceptanceFloorError(
            f"double-click acceptance rate {kept / rounds:.3e} fell below the "
            f"floor {floor:.3e} in the report run ({rounds} rounds)"
        )
    extras = {"exact": False, "check_rounds": rounds}
    if est.post_selected:
        extras["acceptance_rate"] = float(kept / rounds)
        extras["alice_efficiency"] = [float(v) for v in est.alice_efficiency()]
        extras["bob_efficiency"] = est.bob_efficiency()
    report = TransformReport(
        source=model.name,
        corr_deviation=_corr_deviation(
            est.counts, analysis.exact_singlet_conditional(check_spec)
        ),
        inputs_deviation=_estimated_inputs_deviation(est),
        mi_value=None,
        mi_bound=mi_bound,
        extras=extras,
    )
    return cs, report


def _corr_deviation(block: np.ndarray, target: ConditionalTable) -> float:
    """Max |block / mass - target| P(a,b|x,y) over the (x, y) cells with mass.

    ``block[x, y, a, b]`` holds kept round counts or joint probabilities,
    and a cell's mass is its (a, b) sum.
    """
    mass = block.sum(axis=(2, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(block / mass[:, :, None, None] - target.probs)
    return float(np.max(dev.max(axis=(2, 3)), initial=0.0, where=mass > 0))


def _estimated_inputs_deviation(est) -> float:
    total = est.kept_per_cell.sum()
    if total == 0:
        return 0.0
    freq = est.kept_per_cell / total
    return float(np.max(np.abs(freq - est.spec.p_xy)))


def comm_to_cs(
    model: Union[FiniteCommModel, TonerBaconModel],
    spec: SettingsSpec,
    *,
    source: Optional[RandomSource] = None,
    rounds: int = REPORT_ROUNDS,
):
    """Absorb a communication model into a correlated-settings model.

    Finite models yield an :class:`ExactCSModel` with exact reproduction
    deviations, exact I(x,y:lambda) and the exact message entropy H(m).
    The one-bit singlet model yields a :class:`SampledCSModel`; its report
    carries Monte Carlo deviations (``rounds`` rounds from ``source``) and
    the one-bit bound H(m) = 1.

    Returns ``(cs_model, report)``.
    """
    if isinstance(model, FiniteCommModel):
        return _comm_to_cs_exact(model, spec)
    if isinstance(model, TonerBaconModel):
        if source is None:
            raise ConfigError("comm_to_cs needs a RandomSource for sampled models")
        return _sampled_cs(
            model, spec, source, rounds, DEFAULT_FLOOR,
            kind="tb-comm", mi_bound=model.message_entropy_bound,
        )
    raise ConfigError(f"comm_to_cs cannot handle {type(model).__name__}")


def det_to_cs(
    dmodel: GisinGisinModel,
    spec: SettingsSpec,
    *,
    source: RandomSource,
    rounds: int = REPORT_ROUNDS,
    floor: float = DEFAULT_FLOOR,
):
    """Post-select a detection model on both detectors clicking.

    The report run draws (x, y) from the input distribution, runs detection
    rounds, and keeps those where both detectors click, which conditions on
    the double-click event exactly.  If the acceptance rate over the
    ``rounds`` report rounds falls below ``floor``,
    :class:`AcceptanceFloorError` aborts the run with the rate in the
    message.

    Returns ``(cs_model, report)``.
    """
    return _sampled_cs(
        dmodel, spec, source, rounds, floor,
        kind=f"{dmodel.name}-postselected", mi_bound=None,
    )
