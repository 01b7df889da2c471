"""Correlation estimation, locality verification, and mutual information.

The quantum oracle throughout is the singlet correlator E = -x.y for
projective measurements along unit vectors x and y.  Every Monte Carlo
estimator (correlation tables, :func:`mi_finite_settings_tb` and the
quadrature's oracle :func:`mi_tb_montecarlo`) runs through one chunk loop:
:data:`CHUNK_ROUNDS`-sample chunks, each on its own split random
sub-stream, reduced in fixed chunk order.  Memory stays one chunk deep, and
results are bit-identical for a given seed regardless of the parallelism
degree.

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
from .models import ConditionalTable, ExactCSModel, SettingsSpec, _frozen_array
from .sphere import RandomSource, sample_uniform_sphere
from .table import TABLE_CELL_CAP, InfoBits, binary_entropy, group_sums

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

def exact_singlet_conditional(spec: SettingsSpec) -> ConditionalTable:
    """Exact singlet conditional P(a,b|x,y) = (1 - ab x.y)/4 over a spec's settings.

    The nA x nB dots are one batched matmul of 1x3 by 3x1 blocks, so each
    cell's dot runs through numpy's vector dot kernel, as ``np.dot(x, y)``
    of the two settings does; one ``alice @ bob.T`` rounds some dots
    differently.
    """
    a, b = spec.alice_settings, spec.bob_settings
    dots = np.matmul(a[:, None, None, :], b[None, :, :, None])[..., 0, 0]
    return ConditionalTable.from_correlators(-dots)


# ----------------------------------------------------------------------
# correlation estimation
# ----------------------------------------------------------------------

def cell_conditional(block: np.ndarray) -> np.ndarray:
    """P(a,b|x,y) from an (x, y, a, b) block of counts or probabilities.

    Each (x, y) cell is divided by its (a, b) sum, its mass; a cell without
    mass holds NaN.  The result is read-only.
    """
    mass = block.sum(axis=(2, 3))
    with np.errstate(invalid="ignore"):
        probs = block / mass[:, :, None, None]
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Estimated P(a,b|x,y) per setting cell, with counts and standard errors.

    ``counts[x, y, i, j]`` tallies kept rounds; ``attempts`` counts every
    round routed to the cell.  A ``post_selected`` table kept only the
    rounds where Alice's detector clicked (Bob's always clicks), so its kept
    rounds are Alice's clicks.  The per-cell statistics are read-only
    arrays over (x, y); a cell that ended up with no kept rounds has
    ``kept_per_cell == 0`` and NaN estimates, never zeros.
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

    @cached_property
    def probs(self) -> np.ndarray:
        """Estimated P(a,b|x,y) as an (nA, nB, 2, 2) array."""
        return cell_conditional(self.counts)

    @cached_property
    def prob_se(self) -> np.ndarray:
        """Standard error sqrt(p(1-p)/n) per entry of :attr:`probs`."""
        p = self.probs
        return _frozen_array(np.sqrt(p * (1.0 - p) / self.kept_per_cell[:, :, None, None]))

    correlators = ConditionalTable.correlators  # E(x,y) from probs, as for exact tables

    @cached_property
    def correlator_se(self) -> np.ndarray:
        """Standard error sqrt((1 - E^2)/n) of :attr:`correlators`."""
        e = self.correlators
        return _frozen_array(np.sqrt(np.maximum(0.0, 1.0 - e * e) / self.kept_per_cell))

    @cached_property
    def efficiency(self) -> Optional[dict]:
        """Detector efficiencies of a post-selected table, else None: P(D_A)
        per Alice setting, her kept rounds over its attempts (None for one
        never drawn), and P(D_B) = 1.0, since Bob's detector always clicks."""
        if not self.post_selected:
            return None
        kept = self.kept_per_cell.sum(axis=1).tolist()
        attempts = self.attempts.sum(axis=1).tolist()
        return {
            "alice_per_setting": [k / n if n else None for k, n in zip(kept, attempts)],
            "bob": 1.0,
        }


def _chunks(source: RandomSource, total: int, run, parallelism: int = 1):
    """Yield ``run(sub_source, k)`` over ``total`` items cut into chunks, in chunk order.

    Chunk i covers ``k = min(CHUNK_ROUNDS, total - i * CHUNK_ROUNDS)`` items
    and draws only from ``source.child(i)``, so the results do not depend on
    ``parallelism``.  Children are derived as chunks start, and at most
    ``2 * parallelism`` chunks are in flight; callers reduce each result as
    it arrives, which keeps memory a few chunks deep at any round count.
    A ``parallelism`` outside [1, :data:`MAX_PARALLELISM`] raises
    :class:`ConfigError` before the first chunk runs.
    """
    if not 1 <= parallelism <= MAX_PARALLELISM:
        raise ConfigError(
            f"parallelism must lie in [1, {MAX_PARALLELISM}], got {parallelism}"
        )
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
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    n_a, n_b = spec.n_alice, spec.n_bob
    # every cell's settings as (3, n_a*n_b) component rows, which the
    # kernels gather from by the drawn cell codes
    alice, bob = _kernels.cell_rows(spec.alice_settings, spec.bob_settings)

    def run_chunk(sub: RandomSource, k: int):
        s_set, s_mod = sub.split(2)
        cell = spec.sample_indices(s_set.generator(), k)
        batch = model.sample_rounds(cell, alice, bob, s_mod)
        a, b = batch.a, batch.b
        kept = batch.kept if model.post_selects else None
        del batch  # its hidden vectors, before tally allocates
        return _kernels.tally(cell, a, b, n_a, n_b, kept)

    counts = np.zeros((n_a, n_b, 2, 2), dtype=np.int64)
    attempts = np.zeros((n_a, n_b), dtype=np.int64)
    for c, att in _chunks(source, rounds, run_chunk, parallelism):
        counts += c
        attempts += att
    return CorrelationTable(
        spec=spec, counts=counts, attempts=attempts, post_selected=model.post_selects
    )


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

    Reads the table's support over (a, b, x, y) followed by the model's
    hidden variables.  The response probabilities come from the table
    itself: P(a|x,lambda) sums out Bob's side (and y), P(b|y,lambda)
    Alice's, and the conditional P(a,b|x,y,lambda) must equal their product
    for every (a, b) at every support point of (x, y, lambda), cells
    without weight included.  A model whose outcome leaks information about
    the remote setting fails here even though its conditionals factorize
    trivially once both settings are fixed.  ``tol`` must be finite and
    nonnegative, and a model with more than :data:`TABLE_CELL_CAP` (a, b)
    pairs over the support points of (x, y, lambda) raises
    :class:`ConfigError`.  The witness is the first worst cell in row-major
    (a, b, x, y, hidden...) order.
    """
    if not 0.0 <= tol < math.inf:  # NaN fails too
        raise ConfigError(f"verify tolerance must be finite and >= 0, got {tol!r}")
    table = model.table
    names = ("a", "b", "x", "y") + model.hidden_vars
    (ia, ib, ix, iy, *ih), w = table.support(names)
    n_a, n_b, n_x, n_y, *h_shape = (len(table.labels(name)) for name in names)
    # the hidden variables merged into one index, row-major in hidden_vars
    # order; a model without hidden variables has one lambda
    h = np.ravel_multi_index(ih, h_shape) if ih else 0
    n_h = math.prod(h_shape)
    xyh, g, p_xyh = group_sums((ix * n_y + iy) * n_h + h, w)  # P(x,y,lam)
    _, g_xh, p_xh = group_sums(ix * n_h + h, w)  # P(x,lam)
    _, g_yh, p_yh = group_sums(iy * n_h + h, w)  # P(y,lam)
    n_xh, n_yh, n_g = p_xh.size, p_yh.size, p_xyh.size
    # every (x, lam) and (y, lam) point lies under some (x, y, lam) point,
    # so this also bounds resp_a and resp_b
    if n_a * n_b * n_g > TABLE_CELL_CAP:
        raise ConfigError(
            f"verifying needs {n_a * n_b * n_g} (a, b, x, y, lambda) cells, "
            f"more than the cap of {TABLE_CELL_CAP}"
        )
    resp_a = np.bincount(ia * n_xh + g_xh, weights=w, minlength=n_a * n_xh)
    resp_a = resp_a.reshape(n_a, n_xh) / p_xh  # P(a|x,lam)
    resp_b = np.bincount(ib * n_yh + g_yh, weights=w, minlength=n_b * n_yh)
    resp_b = resp_b.reshape(n_b, n_yh) / p_yh  # P(b|y,lam)
    # the (x, lam) and (y, lam) columns of each (x, y, lam) support point
    col_a = np.empty(n_g, dtype=np.intp)
    col_a[g] = g_xh
    col_b = np.empty(n_g, dtype=np.intp)
    col_b[g] = g_yh
    dev = np.bincount((ia * n_b + ib) * n_g + g, weights=w, minlength=n_a * n_b * n_g)
    dev = dev.reshape(n_a, n_b, n_g) / p_xyh  # P(a,b|x,y,lam)
    dev -= resp_a[:, None, col_a] * resp_b[None, :, col_b]
    np.abs(dev, out=dev)
    max_dev = float(dev.max())
    ok = max_dev <= tol
    witness = None
    if not ok:
        # support points run in row-major (x, y, lam) order, so the flat
        # argmax is the first worst cell in row-major (a, b, x, y, lam) order
        a, b, k = np.unravel_index(int(np.argmax(dev)), dev.shape)
        x, y, hk = np.unravel_index(xyh[k], (n_x, n_y, n_h))
        cell = (a, b, x, y) + (np.unravel_index(hk, h_shape) if h_shape else ())
        witness = {name: table.labels(name)[i] for name, i in zip(names, cell)}
    return LocalityReport(ok=ok, max_deviation=max_dev, tol=tol, witness=witness)


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
    """Composite Simpson rule; ``panels`` is even and at least 2."""
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


def _mc_mean(
    source: RandomSource, samples: int, draw, parallelism: int = 1
) -> MIEstimate:
    """Monte Carlo mean of ``draw(gen, k)`` over ``samples`` draws.

    Every chunk of :func:`_chunks` draws its values from its own generator
    and reduces them to (count, sum, sum of squares) on one of
    ``parallelism`` threads; the totals are summed in chunk order, so the
    mean and its standard error do not depend on ``parallelism``, and
    memory stays a few chunks deep.  ``draw`` may return fewer than ``k``
    values (rejection sampling).
    """

    def moments(sub: RandomSource, k: int):
        v = draw(sub.generator(), k)
        return v.size, float(v.sum()), float(np.square(v).sum())

    n, total, squares = 0, 0.0, 0.0
    for c, s, ss in _chunks(source, samples, moments, parallelism):
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


def mi_gg_quadrature() -> MIEstimate:
    """Quadrature form of the detection-model mutual information, on
    ``GG_CHECK_PANELS`` panels."""
    return _quadrature(gg_mi_integrand, 0.0, 1.0, GG_CHECK_PANELS)


def mi_gg_uniform() -> MIEstimate:
    """I(x,y:lambda) = I(x:lambda) of the detection-derived model.

    Returns the closed form 1 - 1/(2 ln 2) and cross-checks it against
    :func:`mi_gg_quadrature`; disagreement beyond ``GG_CHECK_TOL`` raises
    :class:`InternalConsistencyError`.
    """
    check = mi_gg_quadrature()
    if abs(check.value - GG_MI_CLOSED_FORM) > GG_CHECK_TOL:
        raise InternalConsistencyError(
            f"quadrature {check.value!r} disagrees with the closed form "
            f"{GG_MI_CLOSED_FORM!r} beyond {GG_CHECK_TOL}"
        )
    return MIEstimate(value=GG_MI_CLOSED_FORM, method="closed-form", uncertainty=0.0)


def mi_finite_settings_tb(
    spec: SettingsSpec, samples: int, source: RandomSource, parallelism: int = 1
) -> MIEstimate:
    """I(x,y:lambda) of the one-bit-protocol model over finite settings.

    For each sampled shared pair mu = (lambda1, lambda2), the probability
    that the transmitted bit is +1 is the exact finite sum
    p(mu) = sum_x P(x) [sgn(x.lambda1) = sgn(x.lambda2)]; the estimate is
    the Monte Carlo mean of h(p(mu)) = H(m|mu) = I(x,y:lambda), the same
    at any ``parallelism``.
    """
    if samples < 1000:
        raise ConfigError(f"samples must be >= 1000, got {samples}")
    settings = np.ascontiguousarray(spec.alice_settings)
    p_x = np.ascontiguousarray(spec.p_x)

    def draw(gen, k):
        l1 = sample_uniform_sphere(gen, k)
        l2 = sample_uniform_sphere(gen, k)
        p = _kernels.agreement_probs(settings, p_x, l1, l2)
        del l1, l2  # before binary_entropy's temporaries
        return binary_entropy(np.clip(p, 0.0, 1.0))

    return _mc_mean(source, samples, draw, parallelism)


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
