"""The concrete hidden-variable constructions.

Four models, all Bell-local in the appropriate sense:

- :class:`TonerBaconModel`: shared randomness mu = (lambda1, lambda2) plus a
  single classical bit from Alice to Bob, reproducing the singlet correlator
  E = -x.y for every projective setting pair.
- :func:`input_broadcast_build`: a finite communication model in which the
  shared randomness pre-samples an outcome script for every input and the
  message is Alice's input itself, reproducing an arbitrary conditional
  P(a,b|x,y) that does not signal toward Alice; a :class:`FiniteCommModel`
  holds its responses as integer arrays.
- :class:`GisinGisinModel`: a detection model with a setting-independent
  hidden vector; Alice's detector fires with probability |x.lambda|
  (efficiency 1/2 on average), Bob's always fires, and the post-selected
  statistics reproduce the singlet correlator.
- :func:`brans_build`: the extreme correlated-settings model whose hidden
  variable determines the settings and outcomes outright.

The sampled models' responses live only in the :mod:`bellmi._kernels`
outcome maps (ties at zero break to +1); outcome labels are +1 and -1 with
array index 0 meaning +1 everywhere.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import _kernels
from .errors import ConfigError, ValidationError
from .sphere import RandomSource, require_unit, sample_uniform_sphere, vec_polar
from .table import FiniteDistribution, check_normalized

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

    ``SettingsSpec(alice_settings, bob_settings, p_xy=None)`` lists unit
    setting vectors for each side (a single vector is one setting) and
    stores P(x,y) as a read-only (nA, nB) array ``p_xy``, indexed by the
    setting indices; ``p_xy`` defaults to uniform independent inputs.
    """

    alice_settings: np.ndarray
    bob_settings: np.ndarray
    p_xy: Optional[np.ndarray] = None

    def __post_init__(self):
        alice = np.atleast_2d(np.asarray(self.alice_settings, dtype=np.float64))
        bob = np.atleast_2d(np.asarray(self.bob_settings, dtype=np.float64))
        if alice.size == 0 or bob.size == 0:
            raise ConfigError("settings lists must be non-empty")
        n_a, n_b = alice.shape[0], bob.shape[0]
        if self.p_xy is None:
            p = _frozen_array(np.full((n_a, n_b), 1.0 / (n_a * n_b)))
        else:
            p = _frozen_array(self.p_xy)
        if p.shape != (n_a, n_b):
            raise ConfigError(f"p_xy shape {p.shape} does not match ({n_a}, {n_b})")
        check_normalized(p)
        alice = _frozen_array(require_unit(alice))
        bob = _frozen_array(require_unit(bob))
        if alice.ndim != 2 or bob.ndim != 2:
            raise ConfigError("settings must be arrays of shape (n, 3)")
        object.__setattr__(self, "alice_settings", alice)
        object.__setattr__(self, "bob_settings", bob)
        object.__setattr__(self, "p_xy", p)

    @property
    def n_alice(self) -> int:
        return self.alice_settings.shape[0]

    @property
    def n_bob(self) -> int:
        return self.bob_settings.shape[0]

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
        """Draw n cell codes x*n_b + y from P(x,y).

        Draw for draw the same codes as ``gen.choice(cells, size=n,
        p=p_xy.ravel())``: the same uniforms searched in the same cdf, with
        most draws settled by a guide table (Chen & Asau 1974) instead of a
        binary search.  The codes are ``intp``; the outcome kernels and the
        tally read them as they are.
        """
        cdf, guide = self._cell_sampler
        u = gen.random(n)
        codes = guide[(u * guide.size).astype(np.intp)]
        miss = np.flatnonzero(codes < 0)
        codes[miss] = cdf.searchsorted(u[miss], side="right")
        return codes


def preset_chsh() -> SettingsSpec:
    """CHSH preset: Alice at polar angles {0, pi/2}, Bob at {pi/4, 3pi/4},
    all in the x-z plane, with uniform independent inputs.  The singlet gives
    S = -2*sqrt(2) at these settings."""
    alice = [vec_polar(0.0), vec_polar(np.pi / 2)]
    bob = [vec_polar(np.pi / 4), vec_polar(3 * np.pi / 4)]
    return SettingsSpec(alice, bob)


def preset_parallel() -> SettingsSpec:
    """Sanity preset with identical alphabets on both sides ({0, pi/2} polar),
    so diagonal cells probe the perfect anticorrelation E(x,x) = -1."""
    both = [vec_polar(0.0), vec_polar(np.pi / 2)]
    return SettingsSpec(both, both)


PRESETS = {
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
        if np.any(p > 1.0 + CONDITIONAL_ATOL):  # before the sums, which it could overflow
            raise ValidationError("probability above 1 in conditional table")
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

    def alphabets_of(self, spec: SettingsSpec) -> tuple[int, int]:
        """(nA, nB) of a ``spec`` of this table's size, else :class:`ConfigError`."""
        if (self.n_alice, self.n_bob) != (spec.n_alice, spec.n_bob):
            raise ConfigError(
                f"conditional table is {self.n_alice}x{self.n_bob}, "
                f"spec is {spec.n_alice}x{spec.n_bob}"
            )
        return spec.n_alice, spec.n_bob

    @property
    def n_alice(self) -> int:
        return self.probs.shape[0]

    @property
    def n_bob(self) -> int:
        return self.probs.shape[1]

    @cached_property
    def correlators(self) -> np.ndarray:
        """E(x,y) = sum_ab ab P(a,b|x,y) as an (nA, nB) array."""
        p = self.probs
        e = p[:, :, 0, 0] - p[:, :, 0, 1] - p[:, :, 1, 0] + p[:, :, 1, 1]
        return _frozen_array(e)

    def alice_conditional(self) -> np.ndarray:
        """P(a|x,y) as an (nA, nB, 2) array."""
        return self.probs.sum(axis=3)


def pr_box_conditional() -> ConditionalTable:
    """The 2x2 PR box: outcomes uniform, a and b equal unless x = y = 1."""
    return ConditionalTable.from_correlators([[1.0, 1.0], [1.0, -1.0]])


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
    kind = "tb-comm"  # the "kind" that serialize.sampler_payload writes
    hidden_names = ("l1", "l2", "m")  # fields of TBRounds that form lambda
    post_selects = False  # every round counts; no detection step
    # model-file description of the responses that _kernels.tb_outcomes computes
    certificate = (
        "deterministic replay of the one-bit protocol with "
        "lambda = (lambda1, lambda2, m)"
    )
    message_entropy_bound = 1.0  # H(m) for a single bit

    def sample_rounds(self, cell, alice, bob, source: RandomSource) -> TBRounds:
        """Rounds at Alice's settings ``alice[:, cell]`` and Bob's
        ``bob[:, cell]``, ``cell`` holding each round's cell code and
        ``alice`` and ``bob`` the per-cell component rows of
        :func:`bellmi._kernels.cell_rows`."""
        n = cell.shape[0]
        gen = source.generator()
        l1 = sample_uniform_sphere(gen, n)
        l2 = sample_uniform_sphere(gen, n)
        a, b, m, bad = _kernels.tb_outcomes(cell, alice, bob, l1, l2)
        resampled = 0
        while bad.any():
            idx = np.flatnonzero(bad)
            resampled += int(idx.size)
            log.warning("toner-bacon: resampling %d degenerate rounds", idx.size)
            l1[idx] = sample_uniform_sphere(gen, idx.size)
            l2[idx] = sample_uniform_sphere(gen, idx.size)
            ra, rb, rm, rbad = _kernels.tb_outcomes(cell[idx], alice, bob, l1[idx], l2[idx])
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
    kind = "gg-postselected"  # the "kind" that serialize.sampler_payload writes
    hidden_names = ("lam",)  # fields of GGRounds that form lambda
    post_selects = True  # only the rounds in GGRounds.kept count
    message_entropy_bound = None  # no message: the detection route sends nothing
    # model-file description of the responses that _kernels.gg_outcomes computes
    certificate = (
        "detection model: a = sgn(x.lambda), b = -sgn(y.lambda); "
        "double-click post-selection reweights lambda only"
    )

    def sample_rounds(self, cell, alice, bob, source: RandomSource) -> GGRounds:
        """Rounds at settings given as for :meth:`TonerBaconModel.sample_rounds`."""
        n = cell.shape[0]
        gen = source.generator()
        lam = sample_uniform_sphere(gen, n)
        u = gen.random(n)
        a, b, click_a = _kernels.gg_outcomes(cell, alice, bob, lam, u)
        return GGRounds(a=a, b=b, click_a=click_a, lam=lam)


# ----------------------------------------------------------------------
# finite communication models and the input-broadcast construction
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteCommModel:
    """Finite-alphabet communication model with deterministic responses.

    All randomness lives in the shared variable mu (labels plus weights).
    The protocol is one-way by its shapes: ``message[x, mu]`` is a code
    into the ``messages`` labels and ``alice[x, mu]`` Alice's outcome, both
    blind to y; ``bob[y, mu, m]`` is Bob's, m being a message code.
    Outcomes index :data:`OUTCOME_LABELS`; wrong shapes and codes out of
    range raise :class:`ConfigError`.  ``target`` is the P(a,b|x,y) the
    protocol was built to reproduce; the exact report measures the
    reproduced table against it.
    """

    mu_labels: tuple
    mu_weights: np.ndarray
    messages: tuple
    message: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    target: ConditionalTable
    name: str = "finite-comm"

    def __post_init__(self):
        w = np.asarray(self.mu_weights, dtype=np.float64)
        n_mu, n_m = len(self.mu_labels), len(self.messages)
        if w.shape != (n_mu,):
            raise ConfigError("mu_weights must be one weight per mu label")
        check_normalized(w)
        n_a, n_b = self.target.n_alice, self.target.n_bob
        for attr, shape, codes in (("message", (n_a, n_mu), n_m),
                                   ("alice", (n_a, n_mu), 2), ("bob", (n_b, n_mu, n_m), 2)):
            arr = np.array(getattr(self, attr))  # a read-only copy
            if not (arr.shape == shape and arr.dtype.kind in "iu"
                    and np.all((arr >= 0) & (arr < codes))):
                raise ConfigError(f"{attr} must be integer codes in [0, {codes}), shape {shape}")
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)
        object.__setattr__(self, "mu_labels", tuple(self.mu_labels))
        object.__setattr__(self, "messages", tuple(self.messages))
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
    n_a, n_b = corr.alphabets_of(spec)
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

    # Script columns are a_x for each x, then b_xy for each (x, y) given a_x.
    # Each step extends every script by the outcomes of positive
    # probability, in (script, outcome) order, and multiplies its weight.
    scripts = np.zeros((1, n_a + n_a * n_b), dtype=np.int8)
    weights = np.ones(1)
    for col in range(scripts.shape[1]):
        if col < n_a:
            probs = np.broadcast_to(p_a[col], (len(scripts), 2))
        else:
            x, y = divmod(col - n_a, n_b)
            probs = p_b[x, y][scripts[:, x]]
        rows, outcome = np.nonzero(probs > 0.0)
        if rows.size > MU_SUPPORT_CAP:
            raise ConfigError(
                f"shared-randomness support exceeds {MU_SUPPORT_CAP} labels; "
                "the broadcast construction targets small alphabets"
            )
        weights = weights[rows] * probs[rows, outcome]
        scripts = scripts[rows]
        scripts[:, col] = outcome
    signs = np.array(OUTCOME_LABELS)[scripts].tolist()
    n_mu = len(scripts)
    return FiniteCommModel(
        mu_labels=tuple((tuple(s[:n_a]), tuple(s[n_a:])) for s in signs),
        mu_weights=weights,
        messages=tuple((x,) for x in range(n_a)),
        message=np.broadcast_to(np.arange(n_a)[:, None], (n_a, n_mu)),
        alice=scripts[:, :n_a].T,
        bob=scripts[:, n_a:].reshape(n_mu, n_a, n_b).transpose(2, 0, 1),
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
    names the hidden components (for example ("lam",) or ("mu", "m")),
    each once and none of them an outcome or a setting; the model is read
    only through ``table`` marginals over these names.
    ``certificate`` describes the deterministic responses in words for the
    model file; :func:`bellmi.analysis.verify_bell_local` derives the
    responses from ``table`` itself.  The settings spec a model was built
    from is not kept: its input distribution is the ("x", "y") marginal.
    """

    table: FiniteDistribution
    hidden_vars: tuple[str, ...]
    certificate: Optional[str] = None

    def __post_init__(self):
        hidden = tuple(self.hidden_vars)
        object.__setattr__(self, "hidden_vars", hidden)
        if len(set(hidden)) != len(hidden) or not {"a", "b", "x", "y"}.isdisjoint(hidden):
            raise ConfigError(
                f"hidden variables {list(hidden)} must be distinct and none of a, b, x, y"
            )
        want = {"a", "b", "x", "y"} | set(hidden)
        have = set(self.table.variables)
        if want != have:
            raise ConfigError(
                f"model table variables {sorted(have)} do not match "
                f"outcome/setting/hidden names {sorted(want)}"
            )


def brans_build(corr: ConditionalTable, spec: SettingsSpec) -> ExactCSModel:
    """The extreme correlated-settings model: lambda determines everything.

    lambda = (x, y, a, b) with P(lambda) = P(x,y) P(a,b|x,y); the settings
    and outcomes are read off lambda, so P(x,y|lambda) is 0 or 1 and
    I(x,y:lambda) = H(x,y).  Reproduces any ``corr`` exactly.
    """
    n_a, n_b = corr.alphabets_of(spec)
    # one lambda per (x, y, a, b) cell with weight, labelled in that
    # row-major order
    w = spec.p_xy[:, :, None, None] * corr.probs
    cells = np.flatnonzero(w > 0.0)
    x, y, i, j = np.unravel_index(cells, w.shape)
    outcome = np.array(OUTCOME_LABELS)
    lam_labels = zip(x.tolist(), y.tolist(), outcome[i].tolist(), outcome[j].tolist())
    variables = [
        ("a", OUTCOME_LABELS),
        ("b", OUTCOME_LABELS),
        ("x", tuple(range(n_a))),
        ("y", tuple(range(n_b))),
        ("lam", tuple(lam_labels)),
    ]
    # the entries in the table's row-major (a, b, x, y) order, each with its
    # lambda's code, so the table takes them without a sort
    lam = np.zeros(w.shape, dtype=np.intp)
    lam.flat[cells] = np.arange(cells.size)
    w, lam = w.transpose(2, 3, 0, 1), lam.transpose(2, 3, 0, 1)
    entries = np.nonzero(w > 0.0)
    table = FiniteDistribution(variables, entries + (lam[entries],), w[entries])
    return ExactCSModel(
        table=table, hidden_vars=("lam",),
        certificate="deterministic: lambda = (x, y, a, b) fixes both outcomes",
    )
