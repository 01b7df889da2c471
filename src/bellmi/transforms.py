"""Constructions turning other model classes into correlated-settings models.

Three conversions are supported:

- :func:`comm_to_cs` absorbs a communication model's conversation into the
  hidden variable, lambda = (mu, m).  For finite models this is an exact
  table, gathered from the model's response arrays in one pass, with exact
  mutual-information accounting; the one-bit singlet model comes back as
  given, plus Monte Carlo checks.  Either way I(x,y:lambda) is bounded by
  the message entropy H(m).
- :func:`det_to_cs` post-selects a detection model on both detectors
  clicking; its Monte Carlo report keeps only the double-click rounds,
  which conditions on that event exactly (no density reweighting).
- :func:`brans_to_cs` builds the settings-fixing model of a target table,
  whose hidden variable determines settings and outcomes (I = H(x,y)).

The two sampled conversions share one Monte Carlo report (:func:`_sampled_cs`,
one :func:`analysis.estimate_correlations` run) and return the sampler they
were given; the two exact ones share one exact report (:func:`_exact_report`)
and build an :class:`ExactCSModel`.  Each returns the model together with a
:class:`TransformReport` recording reproduction deviations and the
information bound where available, whose fields are its JSON keys in order.
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
        corr_deviation=_corr_deviation(
            analysis.cell_conditional(cs.table.marginal(("x", "y", "a", "b"))), target
        ),
        inputs_deviation=float(np.max(np.abs(p_xy - spec.p_xy))),
        mi_value=analysis.mi_exact_finite(cs).value,
        mi_bound=mi_bound,
        extras={"exact": True, **extras},
    )


def _comm_to_cs_exact(model: FiniteCommModel, spec: SettingsSpec):
    n_a, n_b = model.target.alphabets_of(spec)
    # one entry per (x, y, mu) with weight, in that row-major order
    w = spec.p_xy[:, :, None] * model.mu_weights
    x, y, mu = np.nonzero(w > 0.0)
    sent = model.message[x, mu]
    # the "m" alphabet holds the messages sent, in code order
    codes, m = np.unique(sent, return_inverse=True)
    variables = [
        ("a", OUTCOME_LABELS),
        ("b", OUTCOME_LABELS),
        ("x", tuple(range(n_a))),
        ("y", tuple(range(n_b))),
        ("mu", model.mu_labels),
        ("m", tuple(model.messages[k] for k in codes.tolist())),
    ]
    responses = (model.alice[x, mu], model.bob[y, mu, sent], x, y, mu, m)
    cs = ExactCSModel(
        table=FiniteDistribution(variables, responses, w[x, y, mu]),
        hidden_vars=("mu", "m"),
        certificate=(
            "deterministic communication replay: lambda = (mu, m) fixes "
            "a through (x, mu) and b through (y, mu, m)"
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
    """Spec whose cells with mass are ``pairs`` random (x_i, y_i) pairs."""
    xs = sample_uniform_sphere(gen, pairs)
    ys = sample_uniform_sphere(gen, pairs)
    p = np.zeros((pairs, pairs))
    np.fill_diagonal(p, 1.0 / pairs)
    return SettingsSpec(xs, ys, p)


def _sampled_cs(
    model: Union[TonerBaconModel, GisinGisinModel],
    spec: SettingsSpec,
    source: RandomSource,
    rounds: int,
    floor: float,
    parallelism: int,
):
    """``model`` itself plus its Monte Carlo report.

    The report is one :func:`analysis.estimate_correlations` run of
    ``rounds`` rounds on ``parallelism`` threads, which keeps the rounds
    whose batch ``kept`` mask is set, and checks them against the singlet
    prediction on the spec's cells.  Fewer than ``floor * rounds`` kept rounds raise
    :class:`AcceptanceFloorError`; a floor outside (0, 1] raises
    :class:`ConfigError`.
    """
    if not 0.0 < floor <= 1.0:  # NaN fails too
        raise ConfigError(f"acceptance floor must lie in (0, 1], got {floor!r}")
    # child 1, not ``source`` itself: another stream would change the bytes
    # of every seeded report
    est = analysis.estimate_correlations(
        model, spec, rounds, source.child(1), parallelism=parallelism
    )
    kept = est.kept_per_cell.sum()
    if kept < floor * rounds:
        raise AcceptanceFloorError(
            f"double-click acceptance rate {kept / rounds:.3e} fell below the "
            f"floor {floor:.3e} in the report run ({rounds} rounds)"
        )
    extras = {"exact": False, "check_rounds": rounds}
    if est.efficiency is not None:
        extras["acceptance_rate"] = float(kept / rounds)
        extras["alice_efficiency"] = est.efficiency["alice_per_setting"]
        extras["bob_efficiency"] = est.efficiency["bob"]
    report = TransformReport(
        source=model.name,
        corr_deviation=_corr_deviation(
            est.probs, analysis.exact_singlet_conditional(spec)
        ),
        inputs_deviation=_estimated_inputs_deviation(est),
        mi_bound=model.message_entropy_bound,
        extras=extras,
    )
    return model, report


def _corr_deviation(probs: np.ndarray, target: ConditionalTable) -> float:
    """Max |probs - target| P(a,b|x,y) over the (x, y) cells with mass.

    ``probs`` comes from :func:`analysis.cell_conditional`, so a cell
    without mass holds NaN, which ``fmax`` skips.
    """
    return float(np.fmax.reduce(np.abs(probs - target.probs), axis=None, initial=0.0))


def _estimated_inputs_deviation(est) -> float:
    freq = est.kept_per_cell / est.kept_per_cell.sum()
    return float(np.max(np.abs(freq - est.spec.p_xy)))


def comm_to_cs(
    model: Union[FiniteCommModel, TonerBaconModel],
    spec: SettingsSpec,
    *,
    source: Optional[RandomSource] = None,
    rounds: int = REPORT_ROUNDS,
    parallelism: int = 1,
):
    """Absorb a communication model into a correlated-settings model.

    Finite models yield an :class:`ExactCSModel` with exact reproduction
    deviations, exact I(x,y:lambda) and the exact message entropy H(m).
    The one-bit singlet model is returned as given; its report carries
    Monte Carlo deviations (``rounds`` rounds from ``source`` on
    ``parallelism`` threads, the same at any count) and the one-bit bound
    H(m) = 1.

    Returns ``(cs_model, report)``.
    """
    if isinstance(model, FiniteCommModel):
        return _comm_to_cs_exact(model, spec)
    if isinstance(model, TonerBaconModel):
        if source is None:
            raise ConfigError("comm_to_cs needs a RandomSource for sampled models")
        return _sampled_cs(model, spec, source, rounds, DEFAULT_FLOOR, parallelism)
    raise ConfigError(f"comm_to_cs cannot handle {type(model).__name__}")


def det_to_cs(
    dmodel: GisinGisinModel,
    spec: SettingsSpec,
    *,
    source: RandomSource,
    rounds: int = REPORT_ROUNDS,
    floor: float = DEFAULT_FLOOR,
    parallelism: int = 1,
):
    """Post-select a detection model on both detectors clicking.

    The report run draws (x, y) from the input distribution, runs detection
    rounds, and keeps those where both detectors click, which conditions on
    the double-click event exactly.  If the acceptance rate over the
    ``rounds`` report rounds falls below ``floor``,
    :class:`AcceptanceFloorError` aborts the run with the rate in the
    message.  The report's rounds run on ``parallelism`` threads, with the
    same result at any count.

    Returns ``(dmodel, report)``, the detection model as given.
    """
    return _sampled_cs(dmodel, spec, source, rounds, floor, parallelism)
