"""The concrete hidden-variable constructions.

Four models, all Bell-local in the appropriate sense:

- :class:`TonerBaconModel`: shared randomness mu = (lambda1, lambda2) plus a
  single classical bit from Alice to Bob, reproducing the singlet correlator
  E = -x.y for every projective setting pair.
- :func:`input_broadcast_build`: a finite communication model in which the
  shared randomness pre-samples an outcome script for every input and the
  message is Alice's input itself, reproducing an arbitrary conditional
  P(a,b|x,y) that does not signal toward Alice.
- :class:`GisinGisinModel`: a detection model with a setting-independent
  hidden vector; Alice's detector fires with probability |x.lambda|
  (efficiency 1/2 on average), Bob's always fires, and the post-selected
  statistics reproduce the singlet correlator.
- :func:`brans_build`: the extreme correlated-settings model whose hidden
  variable determines the settings and outcomes outright.

The per-round responses live only in the :mod:`bellmi._kernels` outcome maps
(ties at zero break to +1); outcome labels are +1 and -1 with array index 0
meaning +1 everywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import ConfigError, ValidationError
from .sphere import RandomSource, require_unit, sample_uniform_sphere, vec_polar
from .table import NORM_ATOL, FiniteDistribution

log = logging.getLogger(__name__)

# Index 0 <-> +1 and index 1 <-> -1 on every 2x2 outcome block.
OUTCOME_LABELS = (1, -1)

# Conditional P(a,b|x,y) blocks must sum to 1 within this.
CONDITIONAL_ATOL = 1e-9

# Cap on enumerated shared-randomness support in input_broadcast_build.
MU_SUPPORT_CAP = 65536


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


# ----------------------------------------------------------------------
# settings specification and presets
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SettingsSpec:
    """Measurement-setting alphabets plus the joint input distribution.

    A finite spec lists unit setting vectors for each side and a
    :class:`FiniteDistribution` over variables ("x", "y") whose labels are
    the setting indices.  The continuous spec (all fields None) means both
    settings are drawn independently and uniformly from the sphere.
    """

    alice_settings: Optional[np.ndarray]
    bob_settings: Optional[np.ndarray]
    input_dist: Optional[FiniteDistribution]

    def __post_init__(self):
        fields = (self.alice_settings, self.bob_settings, self.input_dist)
        if all(f is None for f in fields):
            return
        if any(f is None for f in fields):
            raise ConfigError(
                "SettingsSpec needs either all of (alice_settings, bob_settings, "
                "input_dist) or none of them (continuous-uniform)"
            )
        alice = _frozen_array(require_unit(self.alice_settings))
        bob = _frozen_array(require_unit(self.bob_settings))
        if alice.ndim != 2 or bob.ndim != 2:
            raise ConfigError("settings must be arrays of shape (n, 3)")
        if alice.shape[0] == 0 or bob.shape[0] == 0:
            raise ConfigError("finite settings lists must be non-empty")
        object.__setattr__(self, "alice_settings", alice)
        object.__setattr__(self, "bob_settings", bob)
        if self.input_dist.variables != ("x", "y"):
            raise ConfigError(
                f"input_dist must have variables ('x', 'y'), got {self.input_dist.variables}"
            )
        want_x = tuple(range(alice.shape[0]))
        want_y = tuple(range(bob.shape[0]))
        if self.input_dist.labels("x") != want_x or self.input_dist.labels("y") != want_y:
            raise ConfigError("input_dist labels must be the setting indices 0..n-1")

    # -- constructors ---------------------------------------------------

    @classmethod
    def finite(cls, alice_settings, bob_settings, p_xy=None) -> "SettingsSpec":
        """Finite spec; ``p_xy`` defaults to uniform independent inputs."""
        alice = np.atleast_2d(np.asarray(alice_settings, dtype=np.float64))
        bob = np.atleast_2d(np.asarray(bob_settings, dtype=np.float64))
        n_a, n_b = alice.shape[0], bob.shape[0]
        if p_xy is None:
            p = np.full((n_a, n_b), 1.0 / (n_a * n_b))
        else:
            p = np.asarray(p_xy, dtype=np.float64)
            if p.shape != (n_a, n_b):
                raise ConfigError(f"p_xy shape {p.shape} does not match ({n_a}, {n_b})")
        dist = FiniteDistribution(
            [("x", tuple(range(n_a))), ("y", tuple(range(n_b)))], p
        )
        return cls(alice, bob, dist)

    @classmethod
    def continuous_uniform(cls) -> "SettingsSpec":
        """Both settings independent and uniform on the sphere."""
        return cls(None, None, None)

    # -- accessors ------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.alice_settings is not None

    def _require_finite(self):
        if not self.is_finite:
            raise ConfigError("operation needs a finite SettingsSpec")

    @property
    def n_alice(self) -> int:
        self._require_finite()
        return self.alice_settings.shape[0]

    @property
    def n_bob(self) -> int:
        self._require_finite()
        return self.bob_settings.shape[0]

    @property
    def p_xy(self) -> np.ndarray:
        self._require_finite()
        return self.input_dist.marginal(("x", "y"))

    @property
    def p_x(self) -> np.ndarray:
        return self.p_xy.sum(axis=1)

    # -- sampling -------------------------------------------------------

    @cached_property
    def _cell_sampler(self):
        """(cdf, guide) for :meth:`sample_indices`.

        ``cdf`` is the cumulative table ``Generator.choice`` searches.
        ``guide`` cuts [0, 1) into a power of two buckets, at least 16 per
        cell, so a draw's bucket index is exact; it holds the cell of every
        draw in a bucket that no cdf value splits, and -1 elsewhere.
        """
        cdf = np.cumsum(self.p_xy.ravel())
        cdf /= cdf[-1]
        buckets = 1 << (16 * cdf.size - 1).bit_length()
        edges = np.arange(buckets + 1) / buckets
        lo = cdf.searchsorted(edges[:-1], side="right")  # cells <= bucket start
        hi = cdf.searchsorted(edges[1:], side="left")  # cells < bucket end
        return cdf, np.where(lo == hi, lo, -1)

    def sample_indices(self, gen: np.random.Generator, n: int):
        """Draw n (x, y) index pairs from P(x,y).

        Draw for draw the same cells as ``gen.choice(cells, size=n,
        p=p_xy.ravel())``: the same uniforms searched in the same cdf, with
        most draws settled by a guide table (Chen & Asau 1974) instead of a
        binary search.
        """
        self._require_finite()
        cdf, guide = self._cell_sampler
        u = gen.random(n)
        codes = guide[(u * guide.size).astype(np.intp)]
        miss = np.flatnonzero(codes < 0)
        codes[miss] = cdf.searchsorted(u[miss], side="right")
        return np.divmod(codes, self.n_bob)

    def vectors_for(self, x_idx, y_idx):
        """Setting vectors for index arrays; returns (xs, ys) of shape (n, 3),
        column-major like :func:`~bellmi.sphere.sample_uniform_sphere`."""
        self._require_finite()
        return (
            np.ascontiguousarray(self.alice_settings.T).take(x_idx, axis=1).T,
            np.ascontiguousarray(self.bob_settings.T).take(y_idx, axis=1).T,
        )


def preset_chsh() -> SettingsSpec:
    """CHSH preset: Alice at polar angles {0, pi/2}, Bob at {pi/4, 3pi/4},
    all in the x-z plane, with uniform independent inputs.  The singlet gives
    S = -2*sqrt(2) at these settings."""
    alice = [vec_polar(0.0), vec_polar(np.pi / 2)]
    bob = [vec_polar(np.pi / 4), vec_polar(3 * np.pi / 4)]
    return SettingsSpec.finite(alice, bob)


def preset_parallel() -> SettingsSpec:
    """Sanity preset with identical alphabets on both sides ({0, pi/2} polar),
    so diagonal cells probe the perfect anticorrelation E(x,x) = -1."""
    both = [vec_polar(0.0), vec_polar(np.pi / 2)]
    return SettingsSpec.finite(both, both)


PRESETS: dict[str, Callable[[], SettingsSpec]] = {
    "chsh": preset_chsh,
    "parallel": preset_parallel,
}


def preset(name: str) -> SettingsSpec:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None
    return factory()


# ----------------------------------------------------------------------
# conditional outcome tables P(a,b|x,y)
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Conditional distribution P(a,b|x,y) over finite settings.

    ``probs[x, y, i, j]`` with i indexing Alice's outcome and j Bob's,
    both through :data:`OUTCOME_LABELS` (index 0 is +1).
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 4 or p.shape[2:] != (2, 2):
            raise ConfigError(f"conditional table must have shape (nA, nB, 2, 2), got {p.shape}")
        if np.any(p < 0.0):
            raise ValidationError("negative probability in conditional table")
        sums = p.sum(axis=(2, 3))
        if not np.all(np.abs(sums - 1.0) <= CONDITIONAL_ATOL):  # NaN fails too
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValidationError(
                f"conditional blocks must sum to 1 within {CONDITIONAL_ATOL}, "
                f"worst deviation {worst:.3e}"
            )
        object.__setattr__(self, "probs", _frozen_array(p))

    @classmethod
    def from_correlators(cls, e) -> "ConditionalTable":
        """P(a,b|x,y) = (1 + ab E(x,y))/4 from an (nA, nB) correlator array.

        These are the tables with uniform outcome marginals.  E is clamped
        into [-1, 1] first, so a setting dotted with itself that rounds to
        1 + 2.2e-16 gives a zero cell instead of a negative one.
        """
        e = np.clip(np.asarray(e, dtype=np.float64), -1.0, 1.0)
        ab = np.multiply.outer(OUTCOME_LABELS, OUTCOME_LABELS)
        return cls((1.0 + e[:, :, None, None] * ab) / 4.0)

    @property
    def n_alice(self) -> int:
        return self.probs.shape[0]

    @property
    def n_bob(self) -> int:
        return self.probs.shape[1]

    def correlator(self, x: int, y: int) -> float:
        """E(x,y) = sum_ab ab P(a,b|x,y)."""
        c = self.probs[x, y]
        return float(c[0, 0] - c[0, 1] - c[1, 0] + c[1, 1])

    def correlator_se(self, x: int, y: int) -> float:
        return 0.0

    def alice_conditional(self) -> np.ndarray:
        """P(a|x,y) as an (nA, nB, 2) array."""
        return self.probs.sum(axis=3)


def pr_box_conditional() -> ConditionalTable:
    """The 2x2 PR box: outcomes uniform, a and b equal unless x = y = 1."""
    p = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            if x * y == 0:
                p[x, y, 0, 0] = p[x, y, 1, 1] = 0.5
            else:
                p[x, y, 0, 1] = p[x, y, 1, 0] = 0.5
    return ConditionalTable(p)


# ----------------------------------------------------------------------
# Toner-Bacon one-bit communication model
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TBRounds:
    """A batch of one-bit-communication rounds."""

    a: np.ndarray
    b: np.ndarray
    m: np.ndarray
    l1: np.ndarray
    l2: np.ndarray
    resampled: int


class TonerBaconModel:
    """One-bit communication model for the singlet.

    Shared randomness mu = (lambda1, lambda2), two independent uniform
    sphere vectors.  Alice outputs a = -sgn(x.lambda1) and sends the bit
    m = sgn(x.lambda1) sgn(x.lambda2); Bob outputs b = sgn(y.(lambda1 +
    m lambda2)).  Rounds where lambda1 + m lambda2 is the exact zero vector
    (a measure-zero event) are resampled and logged.
    """

    name = "tb"
    hidden_names = ("l1", "l2", "m")  # fields of TBRounds that form lambda
    post_selects = False  # every round counts; no detection step
    # model-file description of the responses that _kernels.tb_outcomes computes
    certificate = (
        "deterministic replay of the one-bit protocol with "
        "lambda = (lambda1, lambda2, m)"
    )
    message_entropy_bound = 1.0  # H(m) for a single bit

    def sample_rounds(self, xs, ys, source: RandomSource) -> TBRounds:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        n = xs.shape[0]
        gen = source.generator()
        l1 = sample_uniform_sphere(gen, n)
        l2 = sample_uniform_sphere(gen, n)
        a, b, m, bad = _kernels.tb_outcomes(xs, ys, l1, l2)
        resampled = 0
        while bad.any():
            idx = np.flatnonzero(bad)
            resampled += int(idx.size)
            log.warning("toner-bacon: resampling %d degenerate rounds", idx.size)
            l1[idx] = sample_uniform_sphere(gen, idx.size)
            l2[idx] = sample_uniform_sphere(gen, idx.size)
            ra, rb, rm, rbad = _kernels.tb_outcomes(xs[idx], ys[idx], l1[idx], l2[idx])
            a[idx], b[idx], m[idx] = ra, rb, rm
            bad = np.zeros(n, dtype=bool)
            bad[idx] = rbad
        return TBRounds(a=a, b=b, m=m, l1=l1, l2=l2, resampled=resampled)


# ----------------------------------------------------------------------
# Gisin-Gisin detection model
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GGRounds:
    """A batch of detection-model rounds."""

    a: np.ndarray
    b: np.ndarray
    click_a: np.ndarray
    lam: np.ndarray

    @property
    def kept(self) -> np.ndarray:
        return self.click_a  # Bob always clicks


class GisinGisinModel:
    """Detection model reproducing post-selected singlet correlations.

    A single hidden vector lambda, uniform on the sphere and independent of
    the settings.  Alice's detector clicks with probability |x.lambda| and
    she outputs a = sgn(x.lambda); Bob always clicks and outputs
    b = -sgn(y.lambda).  Averaged over lambda the efficiencies are
    P(D_A) = 1/2 and P(D_B) = 1.
    """

    name = "gg"
    hidden_names = ("lam",)  # fields of GGRounds that form lambda
    post_selects = True  # only the rounds in GGRounds.kept count
    # model-file description of the responses that _kernels.gg_outcomes computes
    certificate = (
        "detection model: a = sgn(x.lambda), b = -sgn(y.lambda); "
        "double-click post-selection reweights lambda only"
    )

    def sample_rounds(self, xs, ys, source: RandomSource) -> GGRounds:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        n = xs.shape[0]
        gen = source.generator()
        lam = sample_uniform_sphere(gen, n)
        u = gen.random(n)
        a, b, click_a = _kernels.gg_outcomes(xs, ys, lam, u)
        return GGRounds(a=a, b=b, click_a=click_a, lam=lam)


# ----------------------------------------------------------------------
# finite communication models and the input-broadcast construction
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteCommModel:
    """Finite-alphabet communication model with deterministic responses.

    All randomness lives in the shared variable mu (labels plus weights);
    ``conversation(x, y, mu)`` returns the message as a tuple of symbols,
    and ``alice(x, mu, m)`` / ``bob(y, mu, m)`` return outcomes in {+1, -1}.
    One-way protocols simply ignore y in ``conversation``.  ``target`` is
    the P(a,b|x,y) the protocol was built to reproduce; the exact report
    measures the reproduced table against it.
    """

    mu_labels: tuple
    mu_weights: np.ndarray
    conversation: Callable
    alice: Callable
    bob: Callable
    target: ConditionalTable
    name: str = "finite-comm"

    def __post_init__(self):
        w = np.asarray(self.mu_weights, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] != len(self.mu_labels):
            raise ConfigError("mu_weights must be one weight per mu label")
        if np.any(w < 0.0):
            raise ValidationError("negative shared-randomness weight")
        if not abs(float(w.sum()) - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValidationError(f"mu weights sum to {float(w.sum())!r}, not 1")
        object.__setattr__(self, "mu_labels", tuple(self.mu_labels))
        object.__setattr__(self, "mu_weights", _frozen_array(w))


def input_broadcast_build(corr: ConditionalTable, spec: SettingsSpec) -> FiniteCommModel:
    """Communication model whose message is Alice's input itself.

    The shared randomness pre-samples an outcome script: one Alice outcome
    a_x per input x (from P(a|x)), and one Bob outcome b_xy per input pair
    (from P(b|x,y,a_x)).  Alice outputs her scripted a_x and broadcasts
    m = (x,); Bob, knowing x from the message, outputs the scripted b_xy.
    The construction reproduces ``corr`` exactly, but only exists when corr
    does not signal toward Alice (P(a|x,y) independent of y); a signaling
    table raises :class:`ValidationError`.
    """
    spec._require_finite()
    n_a, n_b = spec.n_alice, spec.n_bob
    if (corr.n_alice, corr.n_bob) != (n_a, n_b):
        raise ConfigError(
            f"conditional table is {corr.n_alice}x{corr.n_bob}, spec is {n_a}x{n_b}"
        )
    alice_cond = corr.alice_conditional()  # (nA, nB, 2)
    drift = float(np.max(np.abs(alice_cond - alice_cond[:, :1, :])))
    if drift > CONDITIONAL_ATOL:
        raise ValidationError(
            "input-broadcast model needs P(a|x,y) independent of y "
            f"(no signaling toward Alice); saw deviation {drift:.3e}"
        )
    p_a = alice_cond[:, 0, :]  # (nA, 2), canonical y = 0 row
    # P(b|x,y,a): zero where P(a|x) = 0; those branches never run.
    with np.errstate(divide="ignore", invalid="ignore"):
        p_b = np.where(p_a[:, None, :, None] > 0.0, corr.probs / p_a[:, None, :, None], 0.0)

    a_supports = [[i for i in range(2) if p_a[x, i] > 0.0] for x in range(n_a)]
    size = 1
    for x in range(n_a):
        size *= len(a_supports[x])
        for y in range(n_b):
            size *= max(
                int(np.count_nonzero(p_b[x, y, i] > 0.0)) for i in a_supports[x]
            )
    if size > MU_SUPPORT_CAP:
        raise ConfigError(
            f"shared-randomness support would exceed {MU_SUPPORT_CAP} labels "
            f"(about {size}); the broadcast construction targets small alphabets"
        )

    labels = []
    weights = []
    for a_vec in iter_product(*a_supports):
        w_a = 1.0
        for x in range(n_a):
            w_a = w_a * p_a[x, a_vec[x]]
        pair_supports = []
        for x in range(n_a):
            for y in range(n_b):
                pair_supports.append(
                    [j for j in range(2) if p_b[x, y, a_vec[x], j] > 0.0]
                )
        for b_vec in iter_product(*pair_supports):
            w = w_a
            k = 0
            for x in range(n_a):
                for y in range(n_b):
                    w = w * p_b[x, y, a_vec[x], b_vec[k]]
                    k += 1
            labels.append(
                (
                    tuple(OUTCOME_LABELS[i] for i in a_vec),
                    tuple(OUTCOME_LABELS[j] for j in b_vec),
                )
            )
            weights.append(w)

    def conversation(x: int, y: int, mu) -> tuple:
        return (x,)

    def alice(x: int, mu, m) -> int:
        return mu[0][x]

    def bob(y: int, mu, m) -> int:
        x = m[0]
        return mu[1][x * n_b + y]

    return FiniteCommModel(
        mu_labels=tuple(labels),
        mu_weights=np.asarray(weights),
        conversation=conversation,
        alice=alice,
        bob=bob,
        target=corr,
        name="input-broadcast",
    )


# ----------------------------------------------------------------------
# correlated-settings models
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ExactCSModel:
    """Correlated-settings model as an exact finite table.

    ``table`` is the joint P(a, b, x, y, hidden...) and ``hidden_vars``
    names the hidden components (for example ("lam",) or ("mu", "m")); the
    model is read only through ``table`` marginals over these names.
    ``certificate`` describes the deterministic responses in words for the
    model file; :func:`bellmi.analysis.verify_bell_local` derives the
    responses from ``table`` itself.  The settings spec a model was built
    from is not kept: its input distribution is the ("x", "y") marginal.
    """

    table: FiniteDistribution
    hidden_vars: tuple[str, ...]
    certificate: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "hidden_vars", tuple(self.hidden_vars))
        want = {"a", "b", "x", "y"} | set(self.hidden_vars)
        have = set(self.table.variables)
        if want != have:
            raise ConfigError(
                f"model table variables {sorted(have)} do not match "
                f"outcome/setting/hidden names {sorted(want)}"
            )


@dataclass(frozen=True, eq=False)
class SampledCSModel:
    """Correlated-settings model whose hidden variable is continuous.

    It has no finite weight table: ``kind`` names the construction,
    ``spec`` its input distribution and ``hidden_names`` the hidden
    components.  ``certificate`` is the model class's description of its
    responses, written to the descriptor file.
    """

    kind: str
    spec: SettingsSpec
    hidden_names: tuple[str, ...]
    certificate: Optional[str] = None


def brans_build(corr: ConditionalTable, spec: SettingsSpec) -> ExactCSModel:
    """The extreme correlated-settings model: lambda determines everything.

    lambda = (x, y, a, b) with P(lambda) = P(x,y) P(a,b|x,y); the settings
    and outcomes are read off lambda, so P(x,y|lambda) is 0 or 1 and
    I(x,y:lambda) = H(x,y).  Reproduces any ``corr`` exactly.
    """
    spec._require_finite()
    n_a, n_b = spec.n_alice, spec.n_bob
    if (corr.n_alice, corr.n_bob) != (n_a, n_b):
        raise ConfigError(
            f"conditional table is {corr.n_alice}x{corr.n_bob}, spec is {n_a}x{n_b}"
        )
    p_xy = spec.p_xy
    lam_labels = []
    entries = []
    for x in range(n_a):
        for y in range(n_b):
            for i, a_lab in enumerate(OUTCOME_LABELS):
                for j, b_lab in enumerate(OUTCOME_LABELS):
                    w = float(p_xy[x, y] * corr.probs[x, y, i, j])
                    if w <= 0.0:
                        continue
                    lam = (x, y, a_lab, b_lab)
                    lam_labels.append(lam)
                    entries.append(((a_lab, b_lab, x, y, lam), w))
    variables = [
        ("a", OUTCOME_LABELS),
        ("b", OUTCOME_LABELS),
        ("x", tuple(range(n_a))),
        ("y", tuple(range(n_b))),
        ("lam", tuple(lam_labels)),
    ]
    table = FiniteDistribution.from_entries(variables, entries)
    return ExactCSModel(
        table=table, hidden_vars=("lam",),
        certificate="deterministic: lambda = (x, y, a, b) fixes both outcomes",
    )
