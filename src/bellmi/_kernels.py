"""Hot Monte Carlo kernels in numpy.

Four kernels: the one-bit protocol's and the detection model's per-round
outcomes, the finite-settings message agreement probabilities, and one
integer tally per batch of per-cell outcome counts and attempts.  Every
floating-point reduction over rounds lives in the callers, which reduce in
a fixed chunk order, so results do not depend on the parallelism degree.

Vector batches arrive column-major (see :mod:`bellmi.sphere`), so every
component slice ``v[:, k]`` is one contiguous run.

The per-round maps read each round's settings through one cell code per
round: round i measures the cell ``cell[i]`` = x*n_b + y, as the settings
draw returns it, and its settings are ``alice[:, cell[i]]`` and
``bob[:, cell[i]]``, where ``alice`` and ``bob`` hold the settings of every
cell as (3, n_a*n_b) component rows, Alice's setting x in column x*n_b + y
of ``alice`` and Bob's setting y in that column of ``bob`` (see
:func:`cell_rows`).  A kernel gathers one setting component at a time,
right before the products that use it, so a batch of rounds never holds a
per-round copy of its setting vectors; the one-bit map gathers each of
Alice's components once for both of her dots.  Each dot product is the
element formula ``(s0*l0 + s1*l1) + s2*l2``, accumulated in place in that
order, and an outcome is its sign, with sgn(0) = +1.  The two outcome maps
make their outputs once per call and fill them over tiles of
:data:`ROUND_TILE` rounds, so their dots and Bob's direction are one tile
long, whatever the batch; a round's outcome does not depend on the tile
it falls in.
:func:`agreement_probs` instead takes its dots from matrix products over
tiles of rounds, whose summation order BLAS chooses.  For unit vectors (norms
checked by :func:`bellmi.sphere.require_unit`) any evaluation order, with or
without fused multiply-adds, errs by at most gamma_3 = 3u/(1 - 3u), about
3.3e-16.  The kernel reads whether two dots share a sign from their product:
neither |d| exceeds 1 + gamma_3, so where |d1*d2| >= :data:`SIGN_MARGIN`
both |d| are above about 1e-12 and both signs are the element formula's.
The few cells below the margin take both dots from the element formula, so
every agreement, tie breaks included, is the one the element formula gives.
"""

from __future__ import annotations

import numpy as np


# The outcome kernels compute over tiles of this many rounds: their outputs
# are made once per call, and every float scratch array is one tile long.
# Half a chunk: smaller tiles hold less but cost a round of numpy calls
# each, which slows two threads sharing the interpreter most.
ROUND_TILE = 2**15


def cell_rows(alice_settings, bob_settings):
    """Per-cell (3, n_a*n_b) component rows of two (n, 3) setting alphabets:
    column x*n_b + y holds Alice's setting x in the first and Bob's setting y
    in the second, so a gather by cell code reads the settings' own floats."""
    n_b = bob_settings.shape[0]
    cells = np.arange(alice_settings.shape[0] * n_b)
    return (np.ascontiguousarray(alice_settings[cells // n_b].T),
            np.ascontiguousarray(bob_settings[cells % n_b].T))


def tb_outcomes(cell, alice, bob, l1, l2):
    """One-bit communication round outcomes.

    a = -sgn(x.l1); message m = sgn(x.l1) * sgn(x.l2);
    b = sgn(y.(l1 + m*l2)).  ``bad`` marks rounds where l1 + m*l2 is the
    exact zero vector (caller resamples those).  Such a round has
    y.(l1 + m*l2) = +-0, so only rounds with a zero dot are checked.
    """
    n = cell.shape[0]
    a, b, msg = (np.empty(n, dtype=np.int8) for _ in range(3))
    bad = np.zeros(n, dtype=bool)
    g, v = np.empty(min(ROUND_TILE, n)), np.empty(min(ROUND_TILE, n))
    for lo in range(0, n, ROUND_TILE):
        r = slice(lo, lo + ROUND_TILE)
        c, u1, u2, m = cell[r], l1[r], l2[r], msg[r]
        gt, vt = g[:c.shape[0]], v[:c.shape[0]]
        d1, d2 = _alice_dots(alice, c, u1, u2, gt, vt)
        alice_plus = d1 >= 0.0
        _signs(alice_plus == (d2 >= 0.0), m)
        del d1, d2  # before Bob's dot allocates
        db = _dot(bob, c, _bob_direction(m, u1, u2, vt), gt)
        zero = np.flatnonzero(db == 0.0)
        if zero.size:
            bad[r][zero] = (u1[zero] + m[zero, None] * u2[zero] == 0.0).all(axis=1)
        _signs(~alice_plus, a[r])
        _signs(db >= 0.0, b[r])
    return a, b, msg, bad


def _alice_dots(alice, idx, l1, l2, g, t):
    """Alice's dots with l1 and with l2, each by :func:`_dot`'s formula, with
    each component of her setting gathered once, into ``g`` from k = 1 on,
    for both products; ``t`` is scratch."""
    d1 = alice[0].take(idx, mode="clip")
    d2 = d1 * l2[:, 0]
    d1 *= l1[:, 0]
    for k in (1, 2):
        np.take(alice[k], idx, out=g, mode="clip")
        d1 += np.multiply(g, l1[:, k], out=t)
        d2 += np.multiply(g, l2[:, k], out=g)
    return d1, d2


def _bob_direction(m, l1, l2, v):
    """l1 + m*l2 one component at a time, each written into the buffer ``v``;
    the int8 message m = +-1 becomes exactly +-1.0 in the product."""
    for k in range(3):
        np.multiply(m, l2[:, k], out=v)
        v += l1[:, k]
        yield v


def gg_outcomes(cell, alice, bob, lam, u):
    """Detection-model round outcomes.

    a = sgn(x.lam), detected with probability |x.lam| (u is the per-round
    uniform draw); b = -sgn(y.lam), always detected.
    """
    n = cell.shape[0]
    a, b = np.empty(n, dtype=np.int8), np.empty(n, dtype=np.int8)
    click_a = np.empty(n, dtype=bool)
    g = np.empty(min(ROUND_TILE, n))
    for lo in range(0, n, ROUND_TILE):
        r = slice(lo, lo + ROUND_TILE)
        c, h = cell[r], lam[r].T
        gt = g[:c.shape[0]]
        da = _dot(alice, c, h, gt)
        _signs(da >= 0.0, a[r])
        np.less(u[r], np.abs(da, out=da), out=click_a[r])
        _signs(~(_dot(bob, c, h, gt) >= 0.0), b[r])
    return a, b, click_a


def _dot(settings, idx, components, g):
    """(s0*c0 + s1*c1) + s2*c2 per round, s = ``settings[:, idx]``.

    ``components`` yields the rounds' c0, c1 and c2.  Component k of s is
    gathered right before its product, into the scratch buffer ``g`` from
    k = 1 on, and the sum accumulates in place.  Every index is in range;
    mode "clip" keeps ``take`` from buffering a copy of its output.
    """
    c = iter(components)
    d = settings[0].take(idx, mode="clip")
    d *= next(c)
    for k in (1, 2):
        np.take(settings[k], idx, out=g, mode="clip")
        g *= next(c)
        d += g
    return d


def _signs(plus, out):
    """int8 +1 where the boolean mask ``plus`` is set, -1 elsewhere, into ``out``."""
    np.multiply(plus.view(np.int8), np.int8(2), out=out)
    out -= np.int8(1)


# A product d1*d2 of two dots of magnitude at least SIGN_MARGIN has factors
# of certain sign: the rounding error of a 3-term dot of unit vectors is below
# 3.4e-16, and neither factor exceeds 1 + 3.4e-16.
SIGN_MARGIN = 1e-12

# agreement_probs works on tiles of at most TILE_CELLS (setting, round)
# cells: all J settings by B = max(MIN_TILE_WIDTH, TILE_CELLS // J) rounds,
# and above 128 settings, blocks of 128 settings by 256 rounds.  Its two
# float buffers, made once per call, then hold about 256 KB each, and memory
# does not grow with J.
TILE_CELLS = 2**15
MIN_TILE_WIDTH = 256


def tile_shape(n_settings: int) -> tuple:
    """(settings, rounds) per tile of :func:`agreement_probs`."""
    rows = min(n_settings, TILE_CELLS // MIN_TILE_WIDTH)
    return rows, TILE_CELLS // rows


def agreement_probs(settings, p_x, l1, l2):
    """P(message = +1 | mu) for finite Alice settings.

    For each hidden pair (l1, l2): the sum of p_x[j] over settings j whose
    dots with l1 and l2 share a sign, sgn(0) = +1.  Rows of ``settings`` and
    of ``l1`` and ``l2`` are unit vectors.

    Each tile takes its dots with l1 and with l2 from one matrix product
    each and reads their agreement from the sign of d1*d2.  One minimum of
    |d1*d2| over the tile certifies every sign (see the module docstring);
    an exact 0, -0.0 or NaN dot fails it, and then the cells below
    :data:`SIGN_MARGIN` are settled by the element formula.  Row j + 1 of a
    buffer gets p_x[j] or 0.0 and row 0 the running sums, so one
    ``np.add.reduce`` over axis 0 adds the p_x[j] in setting order from 0.0,
    chaining blocks of 128 settings through row 0: the floats a loop over
    the settings gives.  numpy keeps that order only over 2 or more
    columns, so a 1-column tile accumulates its rows one by one.  A BLAS
    product with p_x would sum in its own order and change the bytes
    ``mutual-info --target tb-finite`` prints for a given seed.
    """
    n_set, n = settings.shape[0], l1.shape[0]
    rows, width = tile_shape(n_set)
    cols = min(width, n)
    terms, dots = np.empty((rows + 1) * cols), np.empty(rows * cols)
    p = np.empty(n, dtype=np.float64)
    for a in range(0, n, width):
        b = min(a + width, n)
        acc, u1, u2 = p[a:b], l1[a:b], l2[a:b]
        for j in range(0, n_set, rows):
            s = settings[j:j + rows]
            t = terms[:(s.shape[0] + 1) * (b - a)].reshape(-1, b - a)
            t[0] = acc if j else 0.0
            prod = np.matmul(s, u1.T, out=t[1:])
            mag = np.matmul(s, u2.T, out=dots[:prod.size].reshape(prod.shape))
            np.multiply(prod, mag, out=prod)
            certain = np.abs(prod, out=mag).min() >= SIGN_MARGIN  # False on NaN too
            np.greater_equal(prod, 0.0, out=prod)
            if not certain:
                _settle_ties(prod, mag, s, u1, u2)
            np.multiply(prod, p_x[j:j + rows, None], out=prod)
            if b - a > 1:
                np.add.reduce(t, axis=0, out=acc)
            else:  # numpy would sum a single column pairwise
                acc[0] = np.add.accumulate(t[:, 0])[-1]
    return p


def _settle_ties(agree, mag, settings, l1, l2):
    """Element-formula agreement in each cell whose ``mag`` is not >= SIGN_MARGIN."""
    j, i = np.nonzero(~(mag >= SIGN_MARGIN))
    g = np.empty(j.shape[0])
    d1, d2 = (_dot(settings.T, j, v[i].T, g) for v in (l1, l2))
    agree[j, i] = (d1 >= 0.0) == (d2 >= 0.0)


def tally(cell, a, b, n_a, n_b, kept=None):
    """(counts, attempts) of one batch of rounds, from one ``bincount``.

    ``counts[x, y, a_bin, b_bin]`` counts the kept rounds, bin 0 = +1 and
    bin 1 = -1; ``attempts[x, y]`` counts every round, kept or not.  With
    ``kept`` None every round is kept.  A round's bin is (cell*2 + a_bin)*2
    + b_bin, cell = x*n_b + y being its cell code, plus 4*n_a*n_b when it
    is dropped, so the counts are the first half of the bins and the
    attempts both halves summed over the outcome bins.
    """
    cells = n_a * n_b
    code = (cell * 2 + (a < 0)) * 2 + (b < 0)
    if kept is not None:
        code += (~kept) * (4 * cells)
    bins = np.bincount(code, minlength=8 * cells).reshape(2, n_a, n_b, 4)
    return bins[0].reshape(n_a, n_b, 2, 2), bins.sum(axis=(0, 3))


def active_backend() -> str:
    """Name of the kernel implementation; always "numpy"."""
    return "numpy"
