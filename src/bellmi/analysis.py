"""Correlation estimation, CHSH, locality verification, and mutual information.

The quantum oracle throughout is the singlet correlator E = -x.y for
projective measurements along unit vectors x and y.  Every Monte Carlo
estimator (correlation tables and the three mutual-information oracles)
runs through one chunk loop: :data:`CHUNK_ROUNDS`-sample chunks, each on its
own split random sub-stream, reduced in fixed chunk order.  Memory stays one
chunk deep, and results are bit-identical for a given seed regardless of the
parallelism degree.

The two headline information numbers:

- :func:`mi_tb_quadrature`: I(x,y:lambda) of the correlated-settings model
  derived from the one-bit communication protocol, evaluated through the
  identity I = H(m|mu) = integral over the angle theta between the two
  shared vectors of (sin(theta)/2) h(theta/pi), about 0.85 bits.
- :func:`mi_gg_uniform`: I(x,y:lambda) = I(x:lambda) of the model derived
  from the detection construction, with closed form 1 - 1/(2 ln 2), about
  0.2787 bits.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .errors import ConfigError, InternalConsistencyError
from .models import OUTCOME_LABELS, ConditionalTable, ExactCSModel, SettingsSpec
from .sphere import RandomSource, require_unit, sample_uniform_sphere
from .table import FiniteDistribution, InfoBits, binary_entropy

# Monte Carlo rounds are processed in fixed-size chunks, one split random
# sub-stream per chunk, so the parallelism degree cannot change results.
CHUNK_ROUNDS = 65536

# Upper bound on worker threads.  A fixed number, not the machine's core
# count, so a command line is accepted or rejected the same everywhere.
MAX_PARALLELISM = 64

# Upper bound on quadrature panels.  At 2**20 panels the half-resolution
# difference is already at rounding level, and one evaluation peaks at about
# 85 MB (0.2 s on a 2-vCPU VM); the grid arrays grow linearly beyond it.
MAX_PANELS = 2**20

# Panels for the internal quadrature cross-check of the closed form.
GG_CHECK_PANELS = 65536
GG_CHECK_TOL = 1e-8

MI_METHODS = ("exact", "quadrature", "monte-carlo", "closed-form")


# ----------------------------------------------------------------------
# singlet predictions
# ----------------------------------------------------------------------

def singlet_correlation(x, y) -> float:
    """Quantum prediction E = -x.y for singlet projective measurements."""
    x = require_unit(x)
    y = require_unit(y)
    return -float(np.dot(x, y))


def exact_singlet_conditional(spec: SettingsSpec) -> ConditionalTable:
    """Exact singlet conditional P(a,b|x,y) = (1 - ab x.y)/4 over a finite spec."""
    spec._require_finite()
    e = [[-float(np.dot(x, y)) for y in spec.bob_settings] for x in spec.alice_settings]
    return ConditionalTable.from_correlators(e)


# ----------------------------------------------------------------------
# correlation estimation
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Estimated P(a,b|x,y) per setting cell, with counts and standard errors.

    ``counts[x, y, i, j]`` tallies kept rounds; ``attempts`` counts every
    round routed to the cell.  A ``post_selected`` table kept only the
    rounds where Alice's detector clicked (Bob's always clicks), so its kept
    rounds are Alice's clicks.  Cells that ended up with no kept rounds
    have ``kept_per_cell == 0``, and their estimates raise rather than read
    as zero.
    """

    spec: SettingsSpec
    counts: np.ndarray
    attempts: np.ndarray
    post_selected: bool = False

    def __post_init__(self):
        want = (self.spec.n_alice, self.spec.n_bob, 2, 2)
        if tuple(self.counts.shape) != want:
            raise ConfigError(f"counts shape {self.counts.shape} != {want}")
        if tuple(self.attempts.shape) != want[:2]:
            raise ConfigError(f"attempts shape {self.attempts.shape} != {want[:2]}")

    @cached_property
    def kept_per_cell(self) -> np.ndarray:
        """Kept rounds per (x, y) cell, summed once and shared read-only."""
        kept = self.counts.sum(axis=(2, 3))
        kept.setflags(write=False)
        return kept

    def _cell_n(self, x: int, y: int) -> int:
        n = int(self.kept_per_cell[x, y])
        if n == 0:
            raise ConfigError(f"cell ({x}, {y}) collected no rounds")
        return n

    def cell_probs(self, x: int, y: int) -> np.ndarray:
        """Estimated P(a,b|x,y) as a (2, 2) block."""
        return self.counts[x, y] / self._cell_n(x, y)

    def cell_prob_se(self, x: int, y: int) -> np.ndarray:
        """Standard error sqrt(p(1-p)/n) per block entry."""
        n = self._cell_n(x, y)
        p = self.counts[x, y] / n
        return np.sqrt(p * (1.0 - p) / n)

    def correlator(self, x: int, y: int) -> float:
        c = self.cell_probs(x, y)
        return float(c[0, 0] - c[0, 1] - c[1, 0] + c[1, 1])

    def correlator_se(self, x: int, y: int) -> float:
        n = self._cell_n(x, y)
        e = self.correlator(x, y)
        return math.sqrt(max(0.0, 1.0 - e * e) / n)

    def alice_efficiency(self) -> np.ndarray:
        """Empirical P(D_A) per Alice setting; NaN for a setting never drawn."""
        if not self.post_selected:
            raise ConfigError("model had no detection step")
        attempts = self.attempts.sum(axis=1)
        return np.divide(
            self.kept_per_cell.sum(axis=1), attempts,
            out=np.full(attempts.shape, np.nan), where=attempts > 0,
        )

    def bob_efficiency(self) -> float:
        """P(D_B): Bob's detector clicks in every round."""
        if not self.post_selected:
            raise ConfigError("model had no detection step")
        return 1.0


def _chunks(source: RandomSource, total: int, run, parallelism: int = 1):
    """Yield ``run(sub_source, k)`` over ``total`` items cut into chunks, in chunk order.

    Chunk i covers ``k = min(CHUNK_ROUNDS, total - i * CHUNK_ROUNDS)`` items
    and draws only from ``source.child(i)``, so the results do not depend on
    ``parallelism``.  Children are derived as chunks start, and at most
    ``2 * parallelism`` chunks are in flight; callers reduce each result as
    it arrives, which keeps memory a few chunks deep at any round count.
    """
    n_chunks = (total + CHUNK_ROUNDS - 1) // CHUNK_ROUNDS

    def one(i: int):
        return run(source.child(i), min(CHUNK_ROUNDS, total - i * CHUNK_ROUNDS))

    if parallelism == 1:
        for i in range(n_chunks):
            yield one(i)
        return
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        pending = deque()
        for i in range(n_chunks):
            if len(pending) == 2 * parallelism:
                yield pending.popleft().result()
            pending.append(pool.submit(one, i))
        while pending:
            yield pending.popleft().result()


def estimate_correlations(
    model,
    spec: SettingsSpec,
    rounds: int,
    source: RandomSource,
    parallelism: int = 1,
) -> CorrelationTable:
    """Run ``rounds`` model rounds and tally per-cell outcome counts.

    Settings are drawn from the spec's P(x,y).  A model whose
    ``post_selects`` is set tallies only the rounds its batch's ``kept``
    mask marks.  Rounds are processed in :data:`CHUNK_ROUNDS`-sized chunks,
    each on its own split random sub-stream; chunk results are reduced in
    chunk order, so the outcome is bit-identical for a given seed at any
    ``parallelism``.
    """
    spec._require_finite()
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    if not 1 <= parallelism <= MAX_PARALLELISM:
        raise ConfigError(
            f"parallelism must lie in [1, {MAX_PARALLELISM}], got {parallelism}"
        )
    n_a, n_b = spec.n_alice, spec.n_bob
    n_cells = n_a * n_b

    def run_chunk(sub: RandomSource, k: int):
        s_set, s_mod = sub.split(2)
        gen = s_set.generator()
        x_idx, y_idx = spec.sample_indices(gen, k)
        xs, ys = spec.vectors_for(x_idx, y_idx)
        batch = model.sample_rounds(xs, ys, s_mod)
        attempts = np.bincount(x_idx * n_b + y_idx, minlength=n_cells).reshape(n_a, n_b)
        a, b = batch.a, batch.b
        if model.post_selects:
            kept = batch.kept
            x_idx, y_idx, a, b = x_idx[kept], y_idx[kept], a[kept], b[kept]
        return _kernels.tally(x_idx, y_idx, a, b, n_a, n_b), attempts

    counts = np.zeros((n_a, n_b, 2, 2), dtype=np.int64)
    attempts = np.zeros((n_a, n_b), dtype=np.int64)
    for c, att in _chunks(source, rounds, run_chunk, parallelism):
        counts += c
        attempts += att
    return CorrelationTable(
        spec=spec, counts=counts, attempts=attempts, post_selected=model.post_selects
    )


# ----------------------------------------------------------------------
# CHSH
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CHSHResult:
    s: float
    se: float


def chsh(table, indices: Sequence[int] = (0, 1, 0, 1)) -> CHSHResult:
    """S = E(x0,y0) - E(x0,y1) + E(x1,y0) + E(x1,y1), error by quadrature sum.

    Accepts anything with ``correlator(x, y)`` and ``correlator_se(x, y)``
    (estimated or exact tables).  Empty cells raise.
    """
    x0, x1, y0, y1 = indices
    s = (
        table.correlator(x0, y0)
        - table.correlator(x0, y1)
        + table.correlator(x1, y0)
        + table.correlator(x1, y1)
    )
    se = math.sqrt(
        table.correlator_se(x0, y0) ** 2
        + table.correlator_se(x0, y1) ** 2
        + table.correlator_se(x1, y0) ** 2
        + table.correlator_se(x1, y1) ** 2
    )
    return CHSHResult(s=float(s), se=float(se))


# ----------------------------------------------------------------------
# Bell-locality verification
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LocalityReport:
    """Verdict of the locality factorization check.

    ``max_deviation`` is the worst |P(a,b|x,y,lambda) -
    P(a|x,lambda) P(b|y,lambda)| over the support of (x,y,lambda);
    ``witness`` names the worst cell when the verdict is negative.
    """

    ok: bool
    max_deviation: float
    tol: float
    witness: Optional[dict] = None


def verify_bell_local(model: ExactCSModel, tol: float = 1e-9) -> LocalityReport:
    """Check the locality factorization on an exact finite model.

    Reads the table's marginal over (a, b, x, y) followed by the model's
    hidden variables, each on its own named axis.  The response
    probabilities come from that marginal itself: P(a|x,lambda) sums out
    Bob's side (and y), P(b|y,lambda) Alice's, and the conditional
    P(a,b|x,y,lambda) must equal their product at every support point.  A
    model whose outcome leaks information about the remote setting fails
    here even though its conditionals factorize trivially once both
    settings are fixed.  ``tol`` must be finite and nonnegative.
    """
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise ConfigError(f"verify tolerance must be finite and >= 0, got {tol!r}")
    names = ("a", "b", "x", "y") + model.hidden_vars
    j = model.table.marginal(names)
    shape = j.shape
    # the hidden axes merged into one, so every reduction below is 5-d
    j = j.reshape(shape[:4] + (-1,))
    with np.errstate(divide="ignore", invalid="ignore"):
        resp_a = j.sum(axis=(1, 3)) / j.sum(axis=(0, 1, 3))  # P(a|x,lam)
        resp_b = j.sum(axis=(0, 2)) / j.sum(axis=(0, 1, 2))  # P(b|y,lam)
        p_xyl = j.sum(axis=(0, 1))
        dev = j / p_xyl
        dev -= resp_a[:, None, :, None, :] * resp_b[None, :, None, :, :]
    np.abs(dev, out=dev)
    dev[:, :, ~(p_xyl > 0.0)] = 0.0  # off the support of (x, y, lambda)
    max_dev = float(dev.max())
    ok = max_dev <= tol
    witness = None
    if not ok:
        # dev is a fresh C-ordered array, so its flat argmax indexes ``shape``
        cell = np.unravel_index(int(np.argmax(dev)), shape)
        witness = {
            name: model.table.labels(name)[i] for name, i in zip(names, cell)
        }
    return LocalityReport(ok=ok, max_deviation=max_dev, tol=tol, witness=witness)


def make_signaling_example() -> ExactCSModel:
    """A correlated-settings table that is not Bell-local: a copies y.

    Conditioned on (x, y, lambda) the outcomes look deterministic, hence
    trivially product; the locality check still fails because Alice's
    response P(a|x, lambda) cannot depend on y.
    """
    entries = []
    for x in range(2):
        for y in range(2):
            a = 1 if y == 0 else -1
            entries.append(((a, 1, x, y, "free"), 0.25))
    variables = [
        ("a", OUTCOME_LABELS),
        ("b", OUTCOME_LABELS),
        ("x", (0, 1)),
        ("y", (0, 1)),
        ("lam", ("free",)),
    ]
    table = FiniteDistribution.from_entries(variables, entries)
    return ExactCSModel(table=table, hidden_vars=("lam",))


# ----------------------------------------------------------------------
# mutual information estimates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MIEstimate:
    """A mutual-information value in bits with its provenance.

    ``uncertainty`` is a standard error for Monte Carlo methods and a
    conservative half-resolution comparison for quadrature; 0 for exact
    and closed-form values.
    """

    value: InfoBits
    method: str
    uncertainty: float

    def __post_init__(self):
        if self.method not in MI_METHODS:
            raise ConfigError(f"method must be one of {MI_METHODS}, got {self.method!r}")
        if self.value < -1e-10:
            raise InternalConsistencyError(f"mutual information {self.value!r} < -1e-10")
        if self.value < 0.0:
            object.__setattr__(self, "value", 0.0)
        if self.uncertainty < 0.0:
            raise ConfigError("uncertainty must be nonnegative")


def _simpson(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with an even number of panels."""
    if panels < 2 or panels % 2:
        raise ConfigError(f"Simpson rule needs an even panel count >= 2, got {panels}")
    xs = a + (b - a) * np.arange(panels + 1) / panels
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (3.0 * panels) * np.dot(w, f(xs)))


def _quadrature(f, a: float, b: float, panels: int) -> MIEstimate:
    """Simpson value of f on [a, b] with its half-resolution difference."""
    if panels < 16:
        raise ConfigError(f"panels must be >= 16, got {panels}")
    if panels % 2:
        raise ConfigError(f"panels must be even, got {panels}")
    if panels > MAX_PANELS:
        raise ConfigError(f"panels must be <= {MAX_PANELS}, got {panels}")
    value = _simpson(f, a, b, panels)
    coarse = _simpson(f, a, b, 2 * (panels // 4))
    return MIEstimate(value=value, method="quadrature", uncertainty=abs(value - coarse))


def _mc_mean(source: RandomSource, samples: int, draw) -> MIEstimate:
    """Monte Carlo mean of ``draw(gen, k)`` over ``samples`` draws.

    Every chunk of :func:`_chunks` draws its values from its own generator
    and reduces them to (count, sum, sum of squares); the mean and its
    standard error come from the totals, so memory stays one chunk deep.
    ``draw`` may return fewer than ``k`` values (rejection sampling).
    """

    def moments(sub: RandomSource, k: int):
        v = draw(sub.generator(), k)
        return v.size, float(v.sum()), float(np.square(v).sum())

    n, total, squares = 0, 0.0, 0.0
    for c, s, ss in _chunks(source, samples, moments):
        n += c
        total += s
        squares += ss
    if n < 2:
        raise ConfigError("too few accepted samples; increase the sample count")
    mean = total / n
    var = max(0.0, (squares - total * mean) / (n - 1))
    return MIEstimate(value=mean, method="monte-carlo", uncertainty=math.sqrt(var / n))


def tb_mi_integrand(theta: np.ndarray) -> np.ndarray:
    """(sin(theta)/2) h(theta/pi): the density of the angle between the two
    shared vectors times the message entropy given that angle.

    Over a uniform Alice setting, sgn(x.lambda1) = sgn(x.lambda2) with
    probability 1 - theta/pi, so H(m|mu) = h(theta/pi)."""
    theta = np.asarray(theta, dtype=np.float64)
    return np.sin(theta) / 2.0 * binary_entropy(theta / np.pi)


def mi_tb_quadrature(panels: int = 1024) -> MIEstimate:
    """I(x,y:lambda) of the one-bit-protocol model, uniform settings.

    Evaluates I = H(m|mu) = integral_0^pi (sin(theta)/2) h(theta/pi)
    d(theta) by composite Simpson.  The reported uncertainty is the raw
    difference against half resolution; no order-extrapolation factor is
    applied because the integrand's endpoint derivative blowup keeps the
    rule below its nominal fourth order, and the raw difference stays a
    sound bound (doubling the panels moves the value by less than it).
    """
    return _quadrature(tb_mi_integrand, 0.0, np.pi, panels)


def mi_tb_montecarlo(samples: int, source: RandomSource) -> MIEstimate:
    """Monte Carlo oracle for :func:`mi_tb_quadrature`.

    Samples shared vector pairs, converts each to an agreement probability
    through the 1 - theta/pi identity, and averages the binary entropy.
    """
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")

    def draw(gen, k):
        l1 = sample_uniform_sphere(gen, k)
        l2 = sample_uniform_sphere(gen, k)
        cosang = np.clip(np.einsum("ij,ij->i", l1, l2), -1.0, 1.0)
        return binary_entropy(1.0 - np.arccos(cosang) / np.pi)

    return _mc_mean(source, samples, draw)


GG_MI_CLOSED_FORM = 1.0 - 1.0 / (2.0 * math.log(2.0))


def gg_mi_integrand(u: np.ndarray) -> np.ndarray:
    """2u log2(2u) on [0, 1] (u = |lambda.x|), zero at u = 0.

    This is the KL integrand between the post-selected hidden-vector
    density |lambda.x| (in u) and the uniform one, after substituting
    u = |cos(theta)| and folding the two hemispheres."""
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u > 0.0, 2.0 * u * np.log2(2.0 * u), 0.0)


def mi_gg_quadrature(panels: int = GG_CHECK_PANELS) -> MIEstimate:
    """Quadrature form of the detection-model mutual information."""
    return _quadrature(gg_mi_integrand, 0.0, 1.0, panels)


def mi_gg_uniform() -> MIEstimate:
    """I(x,y:lambda) = I(x:lambda) of the detection-derived model.

    Returns the closed form 1 - 1/(2 ln 2) and cross-checks it against
    :func:`mi_gg_quadrature`; disagreement beyond ``GG_CHECK_TOL`` raises
    :class:`InternalConsistencyError`.
    """
    check = mi_gg_quadrature(GG_CHECK_PANELS)
    if abs(check.value - GG_MI_CLOSED_FORM) > GG_CHECK_TOL:
        raise InternalConsistencyError(
            f"quadrature {check.value!r} disagrees with the closed form "
            f"{GG_MI_CLOSED_FORM!r} beyond {GG_CHECK_TOL}"
        )
    return MIEstimate(value=GG_MI_CLOSED_FORM, method="closed-form", uncertainty=0.0)


def mi_gg_montecarlo(samples: int, source: RandomSource) -> MIEstimate:
    """Monte Carlo oracle for :func:`mi_gg_uniform`.

    Draws hidden vectors from the post-selected density by rejection
    (accept with probability |lambda.x|, exactly the detection step) and
    averages log2(2 |lambda.x|) over the kept vectors.
    """
    if samples < 2:
        raise ConfigError(f"samples must be >= 2, got {samples}")

    def draw(gen, k):
        lam = sample_uniform_sphere(gen, k)
        u = gen.random(k)
        d = np.abs(lam[:, 2])  # measurement axis fixed to z by symmetry
        return np.log2(2.0 * d[u < d])

    return _mc_mean(source, samples, draw)


def mi_finite_settings_tb(
    spec: SettingsSpec, mu_samples: int, source: RandomSource
) -> MIEstimate:
    """I(x,y:lambda) of the one-bit-protocol model over finite settings.

    For each sampled shared pair mu = (lambda1, lambda2), the probability
    that the transmitted bit is +1 is the exact finite sum
    p(mu) = sum_x P(x) [sgn(x.lambda1) = sgn(x.lambda2)]; the estimate is
    the Monte Carlo mean of h(p(mu)) = H(m|mu) = I(x,y:lambda).
    """
    spec._require_finite()
    if mu_samples < 1000:
        raise ConfigError(f"mu_samples must be >= 1000, got {mu_samples}")
    settings = np.ascontiguousarray(spec.alice_settings)
    p_x = np.ascontiguousarray(spec.p_x)

    def draw(gen, k):
        l1 = sample_uniform_sphere(gen, k)
        l2 = sample_uniform_sphere(gen, k)
        p = _kernels.agreement_probs(settings, p_x, l1, l2)
        return binary_entropy(np.clip(p, 0.0, 1.0))

    return _mc_mean(source, mu_samples, draw)


def mi_exact_finite(
    model: ExactCSModel,
    a_vars: Sequence[str] = ("x", "y"),
    b_vars: Optional[Sequence[str]] = None,
) -> MIEstimate:
    """Exact table mutual information I(A:B) on a finite model."""
    if b_vars is None:
        b_vars = model.hidden_vars
    value = model.table.mutual_information(tuple(a_vars), tuple(b_vars))
    return MIEstimate(value=value, method="exact", uncertainty=0.0)
