"""Exact finite probability tables and Shannon information measures.

A :class:`FiniteDistribution` is a joint probability table over named
discrete variables, stored as its support: one integer index array per
variable and one weight per present cell, in row-major cell order.  All
entropies / mutual informations are computed in bits (log base 2) from the
support, so the work and memory follow the number of present cells, not
the product of the alphabet sizes.

A table is built one way: the constructor takes one integer label-index
array per variable and one weight per entry, which is how every exact model
of the package comes out of its builder.  :meth:`FiniteDistribution.from_entries`
is the model-file reader's builder: it checks the file's code columns, one
JSON integer list per variable, and passes them to the same constructor.

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
:meth:`FiniteDistribution.support` returns the present cells' index arrays
for the names asked, and :meth:`FiniteDistribution.marginal` a small dense
read-only array with one axis per requested name, in the order asked, so no
caller depends on the order in which the table stores its variables.
Concurrent use needs no coordination.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, InternalConsistencyError, ValidationError

# Bits; InfoBits in the package's vocabulary is a plain float carrying bits.
InfoBits = float

NORM_ATOL = 1e-12
MI_CLAMP = 1e-10

# Cap on the cells a table stores (its support) and on the cells of a dense
# marginal.  A stored cell costs one float64 weight plus one index per
# variable, so 2**25 cells of a five-variable table take 1.5 GiB; the
# benchmark's largest table (24x24 Brans) stores 2 304.
TABLE_CELL_CAP = 2**25

# Cell codes are int64 mixed-radix numbers over the alphabets, so the product
# of the alphabet sizes must fit int64.
CODE_SPACE_CAP = np.iinfo(np.int64).max


def check_normalized(w: np.ndarray) -> None:
    """Raise :class:`ValidationError` unless the weights ``w`` are
    nonnegative and sum to 1 within ``NORM_ATOL``; NaN fails.  A weight
    above 1 + ``NORM_ATOL`` fails before the sum, which it could overflow."""
    if np.any(w < 0.0):
        raise ValidationError("negative weight in distribution")
    if np.any(w > 1.0 + NORM_ATOL):
        raise ValidationError("weight above 1 in distribution")
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


def group_sums(keys: np.ndarray, weights: np.ndarray):
    """Sum ``weights`` per distinct integer key.

    Returns ``(distinct, group, sums)``: the distinct keys in ascending
    order, each entry's position in ``distinct``, and the sum of each
    group's weights, added in entry order.  Keys that are already strictly
    increasing, as a table lists its row-major support, skip the sort: they
    are their own distinct keys, possibly ``keys`` itself, and each float64
    sum is ``weight + 0.0``, the value ``bincount`` gives (-0.0 included).
    Callers only read the three arrays.
    """
    if keys.size and (keys[1:] > keys[:-1]).all():
        return keys, np.arange(keys.size), weights + 0.0
    distinct, group = np.unique(keys, return_inverse=True)
    return distinct, group, np.bincount(group, weights=weights, minlength=distinct.size)


class FiniteDistribution:
    """Joint probability table over named discrete variables.

    Parameters
    ----------
    variables:
        Nonempty sequence of ``(name, labels)`` pairs.  Names must be
        unique; labels are the finite alphabet of each variable (hashable,
        unique).
    codes:
        One integer label-index array per variable, in the order of
        ``variables``, all of one length: entry k puts ``weights[k]`` on
        the cell whose index along each variable is ``codes[i][k]``.
    weights:
        One nonnegative weight per entry.  Repeated cells accumulate in
        entry order and cells whose total is zero are dropped; the totals
        must sum to 1 within ``NORM_ATOL``.

    Alphabets whose product does not fit int64 and a support of more than
    :data:`TABLE_CELL_CAP` cells raise :class:`ConfigError`.  The table
    keeps its own frozen arrays, never the caller's.
    """

    __slots__ = ("_names", "_labels", "_axis", "_codes", "_weights")

    def __init__(
        self,
        variables: Sequence[tuple[str, Sequence[Hashable]]],
        codes: Sequence,
        weights,
    ):
        names = tuple(name for name, _ in variables)
        if not names:
            raise ConfigError("a table needs at least one variable")
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate variable names in {names}")
        labels = tuple(tuple(labs) for _, labs in variables)
        for name, labs in zip(names, labels):
            if len(labs) == 0:
                raise ConfigError(f"variable {name!r} has an empty alphabet")
            if len(set(labs)) != len(labs):
                raise ConfigError(f"variable {name!r} has duplicate labels")
        shape = tuple(len(labs) for labs in labels)
        if math.prod(shape) > CODE_SPACE_CAP:
            raise ConfigError(
                f"alphabets {shape} span more cells than int64 codes can index"
            )
        flat = np.ravel_multi_index(tuple(codes), shape)
        cells, _, w = group_sums(flat, np.asarray(weights, dtype=np.float64))
        present = w != 0.0
        cells, w = cells[present], w[present]
        if cells.size > TABLE_CELL_CAP:
            raise ConfigError(
                f"table has {cells.size} cells on its support, more than "
                f"the cap of {TABLE_CELL_CAP}"
            )
        check_normalized(w)
        codes = np.unravel_index(cells, shape)
        for c in codes + (w,):
            c.setflags(write=False)
        object.__setattr__(self, "_names", names)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_axis", {n: i for i, n in enumerate(names)})
        object.__setattr__(self, "_codes", codes)
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
        """The support's weights, one per present cell in row-major order."""
        return self._weights

    def _axis_of(self, name: str) -> int:
        try:
            return self._axis[name]
        except KeyError:
            raise ConfigError(f"unknown variable {name!r}; have {self._names}") from None

    def support(self, names: Iterable[str]):
        """The present cells: ``(indices, weights)``.

        ``indices`` holds one read-only label-index array per name in
        ``names``, in the order asked; entry k of each array and of the
        read-only ``weights`` describe the k-th present cell, in row-major
        order of the table's own variables.  Unknown and repeated names
        raise :class:`ConfigError`.
        """
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ConfigError(f"variables must be distinct, got {names}")
        return tuple(self._codes[self._axis_of(n)] for n in names), self._weights

    def _sizes(self, names: Sequence[str]) -> tuple[int, ...]:
        return tuple(len(self._labels[self._axis_of(n)]) for n in names)

    @classmethod
    def from_entries(
        cls,
        variables: Sequence[tuple[str, Sequence[Hashable]]],
        columns: Sequence[list],
        weights: Sequence[float],
    ) -> "FiniteDistribution":
        """Build from the code columns of a model file.

        ``columns`` holds one list of label indices per variable, in
        variable order, as ``json.loads`` returns it, and ``weights`` one
        probability per entry: entry k puts ``weights[k]`` on the cell whose
        index along each variable is the column's k-th code.  Each column
        must hold as many codes as there are weights, and only JSON
        integers (no bools or floats) in ``[0, len(labels))``; anything else
        raises :class:`ConfigError`.  Each column becomes an int64 array in
        one conversion and the constructor builds the table, so unlisted
        cells are zero and repeated cells accumulate in entry order.
        """
        if len(columns) != len(variables):
            raise ConfigError(
                f"need a code column for each of the {len(variables)} variables"
            )
        codes = []
        for (name, labels), column in zip(variables, columns):
            if len(column) != len(weights):
                raise ConfigError(
                    f"variable {name!r} has {len(column)} codes for {len(weights)} weights"
                )
            kinds = set(map(type, column)) - {int}
            if kinds:
                got = ", ".join(sorted(k.__name__ for k in kinds))
                raise ConfigError(f"codes of variable {name!r} must be integers, got {got}")
            try:
                c = np.array(column, dtype=np.int64)
            except OverflowError:
                raise ConfigError(f"a code of variable {name!r} is past the int64 range") from None
            if c.size and not (c.min() >= 0 and c.max() < len(labels)):
                raise ConfigError(
                    f"codes of variable {name!r} must lie in [0, {len(labels)})"
                )
            codes.append(c)
        return cls(variables, codes, weights)

    def __repr__(self):
        dims = ", ".join(f"{n}[{len(l)}]" for n, l in zip(self._names, self._labels))
        return f"FiniteDistribution({dims})"

    # ------------------------------------------------------------------
    # table operations
    # ------------------------------------------------------------------

    def marginal(self, names: Iterable[str]) -> np.ndarray:
        """P over ``names`` as a dense read-only array, one axis per name
        in the order given; every other variable is summed out.

        Empty, unknown and repeated names raise :class:`ConfigError`, and
        so does a result of more than :data:`TABLE_CELL_CAP` cells.
        """
        names = tuple(names)
        cells, p, shape = self._joint(names)
        size = math.prod(shape)
        if size > TABLE_CELL_CAP:
            raise ConfigError(
                f"marginal over {names} has {size} cells, more than the cap "
                f"of {TABLE_CELL_CAP}"
            )
        out = np.zeros(size)
        out[cells] = p
        out = out.reshape(shape)
        out.setflags(write=False)
        return out

    def _joint(self, names: tuple[str, ...]):
        """The marginal on ``names`` over its own support: its row-major
        cell codes (ascending), their weights, and the names' alphabet
        sizes.  Empty, unknown and repeated names raise
        :class:`ConfigError`."""
        if not names:
            raise ConfigError("a marginal needs at least one variable")
        indices, w = self.support(names)
        shape = self._sizes(names)
        cells, _, p = group_sums(np.ravel_multi_index(indices, shape), w)
        return cells, p, shape

    # ------------------------------------------------------------------
    # information measures (bits)
    # ------------------------------------------------------------------

    def entropy(self, variables: Iterable[str]) -> InfoBits:
        """Shannon entropy H of the marginal on ``variables``."""
        _, p, _ = self._joint(tuple(variables))
        return float(0.0 - (p * np.log2(p)).sum())  # +0.0, not -0.0, for a point mass

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
        cells, pj, shape = self._joint(a + b)
        n_b = math.prod(shape[len(a):])
        _, ia, pa = group_sums(cells // n_b, pj)
        _, ib, pb = group_sums(cells % n_b, pj)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = pj * np.log2(pj / (pa[ia] * pb[ib]))
        value = float(terms.sum())
        if value < -MI_CLAMP:
            raise InternalConsistencyError(f"mutual information = {value!r} < -{MI_CLAMP}")
        return 0.0 if value < 0.0 else value
