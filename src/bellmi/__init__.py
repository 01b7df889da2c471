"""Bell-local models with partially correlated measurement settings.

The package builds models that reproduce singlet (and other two-outcome)
correlations while keeping Bell locality, and quantifies the price as the
mutual information I(x,y:lambda) between the measurement settings and the
hidden variable.  Headline numbers: a one-bit-of-communication protocol
converts to a correlated-settings model at about 0.85 bits, a detection
(post-selection) protocol at 1 - 1/(2 ln 2) ~ 0.28 bits, and any model
built this way obeys I <= H(m) <= 1 bit per message bit.

Layout: :mod:`bellmi.table` (exact finite distributions and information
measures), :mod:`bellmi.sphere` (unit-sphere sampling and geometry),
:mod:`bellmi.models` (the protocols and model containers),
:mod:`bellmi.transforms` (protocol-to-model conversions with reports),
:mod:`bellmi.analysis` (estimators, verifiers, and the mutual-information
numerics), :mod:`bellmi.serialize` (deterministic JSON/CSV), and
:mod:`bellmi.cli` (the ``bellmi`` command).
"""

from .analysis import (
    CorrelationTable,
    GG_MI_CLOSED_FORM,
    LocalityReport,
    MIEstimate,
    estimate_correlations,
    exact_singlet_conditional,
    mi_exact_finite,
    mi_finite_settings_tb,
    mi_gg_quadrature,
    mi_gg_uniform,
    mi_tb_quadrature,
    verify_bell_local,
)
from .errors import (
    AcceptanceFloorError,
    BellError,
    ConfigError,
    InternalConsistencyError,
    ValidationError,
)
from .models import (
    ConditionalTable,
    ExactCSModel,
    FiniteCommModel,
    GisinGisinModel,
    SettingsSpec,
    TonerBaconModel,
    brans_build,
    input_broadcast_build,
    pr_box_conditional,
    preset,
)
from .sphere import RandomSource, sample_uniform_sphere
from .table import FiniteDistribution, binary_entropy
from .transforms import TransformReport, comm_to_cs, det_to_cs

__version__ = "1.0.0"

__all__ = [
    "AcceptanceFloorError",
    "BellError",
    "ConditionalTable",
    "ConfigError",
    "CorrelationTable",
    "ExactCSModel",
    "FiniteCommModel",
    "FiniteDistribution",
    "GG_MI_CLOSED_FORM",
    "GisinGisinModel",
    "InternalConsistencyError",
    "LocalityReport",
    "MIEstimate",
    "RandomSource",
    "SettingsSpec",
    "TonerBaconModel",
    "TransformReport",
    "ValidationError",
    "binary_entropy",
    "brans_build",
    "comm_to_cs",
    "det_to_cs",
    "estimate_correlations",
    "exact_singlet_conditional",
    "input_broadcast_build",
    "mi_exact_finite",
    "mi_finite_settings_tb",
    "mi_gg_quadrature",
    "mi_gg_uniform",
    "mi_tb_quadrature",
    "pr_box_conditional",
    "preset",
    "sample_uniform_sphere",
    "verify_bell_local",
]
