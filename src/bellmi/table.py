"""Exact finite probability tables and Shannon information measures.

Everything here is exact arithmetic on small dense tables: a
:class:`FiniteDistribution` is a joint probability table over named discrete
variables, and all entropies / mutual informations are computed in bits
(log base 2) directly from the table.

Conventions fixed for the whole package:

- ``0 * log 0 := 0`` (continuity convention).
- Weights must sum to 1 within ``NORM_ATOL`` at construction; inputs further
  off are rejected rather than silently renormalized, to surface model bugs.
- Mutual informations in ``[-MI_CLAMP, 0)`` are clamped to 0; anything more
  negative raises :class:`~bellmi.errors.InternalConsistencyError`.
- Mutual information is evaluated in the KL-ratio form
  ``sum p * log2(p / (pA * pB))``, which is algebraically identical to
  ``H(A) + H(B) - H(A u B)`` but returns exactly 0.0 when the table
  factorizes exactly in floating point (independent variables built from
  dyadic weights come out at literal zero, not 1e-16).

Tables are immutable and are read by variable name only:
:meth:`FiniteDistribution.marginal` returns a read-only array with one axis
per requested name, in the order asked, so no caller depends on the order in
which the table stores its axes.  Concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Sequence
from typing import Optional

import numpy as np

from .errors import ConfigError, InternalConsistencyError, ValidationError

# Bits; InfoBits in the package's vocabulary is a plain float carrying bits.
InfoBits = float

NORM_ATOL = 1e-12
MI_CLAMP = 1e-10

# Cap on the cells FiniteDistribution.from_entries allocates: 2**25 float64
# cells (256 MiB) are six times the benchmark's largest table (24x24 Brans,
# 5.3 M cells) and admit Brans models up to 38x38, whose locality check
# stays near 1 GB of arrays.
TABLE_CELL_CAP = 2**25


def check_normalized(w: np.ndarray) -> None:
    """Raise :class:`ValidationError` unless the weights ``w`` are
    nonnegative and sum to 1 within ``NORM_ATOL``; NaN fails."""
    if np.any(w < 0.0):
        raise ValidationError("negative weight in distribution")
    total = float(w.sum())
    if not abs(total - 1.0) <= NORM_ATOL:  # NaN fails too
        raise ValidationError(
            f"weights sum to {total!r}, off by more than {NORM_ATOL}; "
            "normalize upstream instead of passing unnormalized tables"
        )


def binary_entropy(p):
    """Binary entropy h(p) in bits; accepts a scalar or an array.

    h(0) = h(1) = 0 by the 0*log0 convention.  Values outside [0, 1] raise
    :class:`ValidationError`.
    """
    arr = np.asarray(p, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValidationError(f"binary_entropy: p must lie in [0, 1], got {p!r}")
    out = np.zeros_like(arr)
    interior = (arr > 0.0) & (arr < 1.0)
    q = arr[interior]
    out[interior] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    if np.isscalar(p) or arr.ndim == 0:
        return float(out)
    return out


class FiniteDistribution:
    """Joint probability table over named discrete variables.

    Parameters
    ----------
    variables:
        Sequence of ``(name, labels)`` pairs.  Names must be unique; labels
        are the finite alphabet of each variable (hashable, unique).
    weights:
        Array of joint probabilities with one axis per variable, in the
        given order.  Must be nonnegative and sum to 1 within ``NORM_ATOL``.
    """

    __slots__ = ("_names", "_labels", "_axis", "_weights")

    def __init__(self, variables: Sequence[tuple[str, Sequence[Hashable]]], weights):
        self._adopt(variables, np.array(weights, dtype=np.float64, order="C"))

    def _adopt(self, variables, w: np.ndarray) -> None:
        """Validate and take ``w`` as the weights, without copying it.

        ``w`` must be a float64 array that nothing else writes to; it is
        frozen here.
        """
        names = tuple(name for name, _ in variables)
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate variable names in {names}")
        labels = tuple(tuple(labs) for _, labs in variables)
        for name, labs in zip(names, labels):
            if len(labs) == 0:
                raise ConfigError(f"variable {name!r} has an empty alphabet")
            if len(set(labs)) != len(labs):
                raise ConfigError(f"variable {name!r} has duplicate labels")
        shape = tuple(len(labs) for labs in labels)
        if w.shape != shape:
            raise ConfigError(f"weights shape {w.shape} does not match alphabets {shape}")
        check_normalized(w)
        w.setflags(write=False)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_axis", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_weights", w)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("FiniteDistribution is immutable")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def variables(self) -> tuple[str, ...]:
        return self._names

    def labels(self, name: str) -> tuple[Hashable, ...]:
        return self._labels[self._axis_of(name)]

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def _axis_of(self, name: str) -> int:
        try:
            return self._axis[name]
        except KeyError:
            raise ConfigError(f"unknown variable {name!r}; have {self._names}") from None

    @classmethod
    def from_entries(
        cls,
        variables: Sequence[tuple[str, Sequence[Hashable]]],
        entries: Iterable[tuple[Sequence[Hashable], float]],
    ) -> "FiniteDistribution":
        """Build from sparse ``(assignment, probability)`` pairs.

        Assignments list one label per variable, in variable order.
        Unlisted cells are zero.  Repeated assignments accumulate.  A table
        of more than :data:`TABLE_CELL_CAP` cells raises
        :class:`ConfigError` before anything is allocated.
        """
        labels = [tuple(labs) for _, labs in variables]
        shape = tuple(len(labs) for labs in labels)
        cells = math.prod(shape)
        if cells > TABLE_CELL_CAP:
            raise ConfigError(
                f"table over alphabets {shape} has {cells} cells, more than "
                f"the cap of {TABLE_CELL_CAP}"
            )
        lookup = [{lab: j for j, lab in enumerate(labs)} for labs in labels]
        w = np.zeros(shape, dtype=np.float64)
        for assignment, p in entries:
            if len(assignment) != len(labels):
                raise ConfigError(
                    f"assignment {assignment!r} does not cover all {len(labels)} variables"
                )
            try:
                idx = tuple(lookup[i][lab] for i, lab in enumerate(assignment))
            except KeyError:
                raise ConfigError(f"assignment {assignment!r} uses an unknown label") from None
            w[idx] += p
        table = cls.__new__(cls)
        table._adopt(variables, w)  # w is ours: no second copy
        return table

    def entries(self):
        """Iterate ``(assignment_tuple, weight)`` over the nonzero cells in
        row-major order."""
        for idx in np.argwhere(self._weights).tolist():
            p = float(self._weights[tuple(idx)])
            yield tuple(labs[j] for labs, j in zip(self._labels, idx)), p

    def __repr__(self):
        dims = ", ".join(f"{n}[{len(l)}]" for n, l in zip(self._names, self._labels))
        return f"FiniteDistribution({dims})"

    # ------------------------------------------------------------------
    # table operations
    # ------------------------------------------------------------------

    def marginal(self, names: Iterable[str]) -> np.ndarray:
        """P over ``names`` as a read-only array, one axis per name in the
        order given; every other variable is summed out.

        When nothing is summed out the result is a view of the weights, not
        a copy.  Empty, unknown and repeated names raise
        :class:`ConfigError`.
        """
        names = tuple(names)
        if not names:
            raise ConfigError("marginal() needs at least one variable")
        if len(set(names)) != len(names):
            raise ConfigError(f"variables must be distinct, got {names}")
        axes = tuple(self._axis_of(n) for n in names)
        drop = tuple(i for i in range(len(self._names)) if i not in axes)
        w = self._weights.sum(axis=drop) if drop else self._weights
        kept = sorted(axes)  # the axis order of w
        out = np.transpose(w, [kept.index(i) for i in axes])
        out.setflags(write=False)
        return out

    # ------------------------------------------------------------------
    # information measures (bits)
    # ------------------------------------------------------------------

    def entropy(self, variables: Optional[Iterable[str]] = None) -> InfoBits:
        """Shannon entropy H of the marginal on ``variables`` (default: all)."""
        w = self._weights if variables is None else self.marginal(variables)
        p = w[w > 0.0]
        return float(-(p * np.log2(p)).sum())

    def mutual_information(
        self, a: Sequence[str], b: Sequence[str]
    ) -> InfoBits:
        """I(A:B) = H(A) + H(B) - H(A,B), in bits, clamped at 0.

        Evaluated as sum p(a,b) log2( p(a,b) / (p(a) p(b)) ) so exactly
        independent tables return exactly 0.0.
        """
        a, b = tuple(a), tuple(b)
        if not a or not b:
            raise ConfigError(f"mutual information needs nonempty sets, got {a} and {b}")
        pj = self.marginal(a + b)
        pj = pj.reshape(
            int(np.prod(pj.shape[: len(a)])), int(np.prod(pj.shape[len(a):]))
        )
        pa = pj.sum(axis=1)
        pb = pj.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = pj / (pa[:, None] * pb[None, :])
            terms = np.where(pj > 0.0, pj * np.log2(ratio), 0.0)
        return self._clamped(float(terms.sum()), "mutual information")

    def conditional_mutual_information(
        self, a: Sequence[str], b: Sequence[str], c: Sequence[str]
    ) -> InfoBits:
        """I(A:B|C) = H(A,C) + H(B,C) - H(A,B,C) - H(C) >= 0, in bits."""
        a, b, c = tuple(a), tuple(b), tuple(c)
        p = self.marginal(a + b + c)
        p = p.reshape(
            int(np.prod(p.shape[: len(a)])),
            int(np.prod(p.shape[len(a): len(a) + len(b)])),
            int(np.prod(p.shape[len(a) + len(b):])) if c else 1,
        )
        pac = p.sum(axis=1)  # (A, C)
        pbc = p.sum(axis=0)  # (B, C)
        pc = p.sum(axis=(0, 1))  # (C,)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (p * pc[None, None, :]) / (pac[:, None, :] * pbc[None, :, :])
            terms = np.where(p > 0.0, p * np.log2(ratio), 0.0)
        return self._clamped(float(terms.sum()), "conditional mutual information")

    @staticmethod
    def _clamped(value: float, what: str) -> float:
        if value < -MI_CLAMP:
            raise InternalConsistencyError(f"{what} = {value!r} < -{MI_CLAMP}")
        return 0.0 if value < 0.0 else value
