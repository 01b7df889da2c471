"""Shared helpers: a subprocess CLI runner, spread sphere points, the
pair-by-pair sphere draw, settings arguments for the sampled models and
each party's half of their rounds, a small valid model file, tables built
from dense arrays, the oracles for reproduced conditional tables, the
acceptance gate's oracles (the scalar singlet correlator, the singlet
table as a loop of dots, CHSH, the detection route's Monte Carlo price and
the signaling counterexample's builder), the dense-table oracles for the
information measures and the verifier, the entry-at-a-time model-file
writer, and the reader of the row layout that model files had before code
columns."""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bellmi import serialize
from bellmi.analysis import MIEstimate, _mc_mean, cell_conditional
from bellmi.errors import ConfigError
from bellmi.models import OUTCOME_LABELS, ConditionalTable, ExactCSModel
from bellmi.sphere import RandomSource, require_unit, sample_uniform_sphere
from bellmi.table import FiniteDistribution

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, env_extra=None, cwd=None):
    """Run the CLI in a subprocess; returns (exit_code, stdout_bytes, stderr).

    The repository's ``src`` leads the subprocess ``PYTHONPATH``, so the
    suite runs from a clean checkout without installing the package.
    Warnings are errors in the subprocess too, as pytest makes them in
    process.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "bellmi", *args],
        capture_output=True,
        env=env,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr.decode()


def fibonacci_sphere(n: int) -> np.ndarray:
    """n roughly evenly spread points on the sphere (golden-angle spiral)."""
    i = np.arange(n, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / n
    golden = np.pi * (3.0 - np.sqrt(5.0))
    phi = golden * i
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def row_major_sphere(gen, n: int) -> np.ndarray:
    """The n points ``sphere.sample_uniform_sphere`` draws from ``gen``,
    computed pair by pair with Python floats into a row-major (n, 3) array.

    Same blocks and top-up rule: while r points are missing, draw
    ``gen.random((2, r * 4 // 3 + 64))`` and walk its pairs in order,
    mapping each with Marsaglia's formulas until r are kept.
    """
    rows = []
    while len(rows) < n:
        block = gen.random((2, (n - len(rows)) * 4 // 3 + 64))
        for tu, tv in zip(block[0].tolist(), block[1].tolist()):
            u, v = 2.0 * tu - 1.0, 2.0 * tv - 1.0
            s = u * u + v * v
            if s < 1.0:
                w = 2.0 * math.sqrt(1.0 - s)
                rows.append((u * w, v * w, 1.0 - 2.0 * s))
                if len(rows) == n:
                    break
    return np.array(rows, dtype=np.float64).reshape(n, 3)


def per_round_settings(xs, ys):
    """Settings arguments of ``sample_rounds`` that give round i Alice's
    setting xs[i] and Bob's ys[i]: identity cell codes and per-cell
    component rows."""
    return np.arange(xs.shape[0]), np.ascontiguousarray(xs.T), np.ascontiguousarray(ys.T)


def fixed_settings(n: int):
    """Settings arguments of ``sample_rounds`` for n rounds that all
    measure Alice along z and Bob along x."""
    zeros = np.zeros(n, dtype=np.intp)
    return zeros, np.array([[0.0], [0.0], [1.0]]), np.array([[1.0], [0.0], [0.0]])


def _dot(u, v):
    """Row-wise dots of two (n, 3) batches by the element formula."""
    return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1] + u[:, 2] * v[:, 2]


def _signs(plus, minus=False):
    """int8 +1 where ``plus`` is set and -1 elsewhere, negated if ``minus``."""
    one = np.int8(-1 if minus else 1)
    return np.where(plus, one, -one)


def tb_alice_half(xs, l1, l2):
    """Alice's half of one-bit rounds, from her settings ``xs`` and mu =
    (l1, l2) alone: (a, m) with a = -sgn(x.l1) and the bit
    m = sgn(x.l1) sgn(x.l2), sgn(0) = +1."""
    plus = _dot(xs, l1) >= 0.0
    return _signs(plus, minus=True), _signs(plus == (_dot(xs, l2) >= 0.0))


def tb_bob_half(ys, l1, l2, m):
    """Bob's half of one-bit rounds, from his settings ``ys``, mu and the
    bit ``m`` alone: (b, bad) with b = sgn(y.(l1 + m l2)) and ``bad`` set
    where l1 + m l2 is the zero vector."""
    v = np.stack([l1[:, k] + m * l2[:, k] for k in range(3)], axis=1)
    return _signs(_dot(ys, v) >= 0.0), (v == 0.0).all(axis=1)


def gg_alice_half(xs, lam, u):
    """Alice's half of detection rounds: (a, click) with a = sgn(x.lam),
    clicking where the round's uniform ``u`` is below |x.lam|."""
    d = _dot(xs, lam)
    return _signs(d >= 0.0), u < np.abs(d)


def gg_bob_half(ys, lam):
    """Bob's half of detection rounds: b = -sgn(y.lam); he always clicks."""
    return _signs(_dot(ys, lam) >= 0.0, minus=True)


def comm_conditional(model, spec) -> ConditionalTable:
    """P(a,b|x,y) of a finite communication model by direct enumeration.

    ``model`` needs only the response arrays of a ``FiniteCommModel``
    (``mu_weights``, ``message``, ``alice``, ``bob``).
    """
    n_a, n_b = spec.n_alice, spec.n_bob
    out = np.zeros((n_a, n_b, 2, 2))
    for x in range(n_a):
        for y in range(n_b):
            for mu, w in enumerate(model.mu_weights):
                m = model.message[x, mu]
                out[x, y, model.alice[x, mu], model.bob[y, mu, m]] += w
    return ConditionalTable(out)


def exact_conditional(model) -> ConditionalTable:
    """Reproduced P(a,b|x,y) of an exact model; every input cell needs mass."""
    probs = cell_conditional(model.table.marginal(("x", "y", "a", "b")))
    assert not np.isnan(probs).any(), "an input cell has zero mass"
    return ConditionalTable(probs)


def singlet_correlation(x, y) -> float:
    """Quantum prediction E = -x.y for singlet projective measurements
    along unit vectors, the scalar twin of
    ``analysis.exact_singlet_conditional``."""
    return -float(np.dot(require_unit(x), require_unit(y)))


def singlet_conditional_oracle(spec) -> ConditionalTable:
    """``analysis.exact_singlet_conditional`` as a loop: one ``np.dot`` of
    two settings per cell, negated, then the package's clamp and cell map."""
    e = [[-float(np.dot(x, y)) for y in spec.bob_settings] for x in spec.alice_settings]
    return ConditionalTable.from_correlators(e)


@dataclass(frozen=True)
class CHSHResult:
    s: float
    se: float


def chsh(table) -> CHSHResult:
    """S = E(0,0) - E(0,1) + E(1,0) + E(1,1), its error by quadrature sum.

    Reads ``correlators``, and ``correlator_se`` where the table has it (an
    estimated table); an exact table has no sampling error.  A cell
    without rounds raises :class:`ConfigError`.
    """
    cells = ((0, 0), (0, 1), (1, 0), (1, 1))
    e = [float(table.correlators[c]) for c in cells]
    if any(math.isnan(v) for v in e):
        raise ConfigError(f"a CHSH cell among {cells} collected no rounds")
    se = getattr(table, "correlator_se", None)
    se = 0.0 if se is None else math.sqrt(sum(float(se[c]) ** 2 for c in cells))
    return CHSHResult(s=e[0] - e[1] + e[2] + e[3], se=se)


def mi_gg_montecarlo(samples: int, source: RandomSource) -> MIEstimate:
    """Monte Carlo oracle for ``analysis.mi_gg_uniform``.

    Draws hidden vectors from the post-selected density by rejection
    (accept with probability |lambda.x|, exactly the detection step) and
    averages log2(2 |lambda.x|) over the kept vectors, through the
    package's chunk loop.
    """

    def draw(gen, k):
        lam = sample_uniform_sphere(gen, k)
        u = gen.random(k)
        d = np.abs(lam[:, 2])  # measurement axis fixed to z by symmetry
        return np.log2(2.0 * d[u < d])

    return _mc_mean(source, samples, draw)


def make_signaling_example() -> ExactCSModel:
    """A correlated-settings table that is not Bell-local: a copies y.  The
    bundled ``data/signaling_counterexample.json`` holds this model.

    Conditioned on (x, y, lambda) the outcomes look deterministic, hence
    trivially product; the locality check still fails because Alice's
    response P(a|x, lambda) cannot depend on y.
    """
    x, y = np.divmod(np.arange(4), 2)  # the four (x, y) cells
    fixed = np.zeros(4, dtype=np.intp)  # b = +1 and the one lambda
    variables = [
        ("a", OUTCOME_LABELS),
        ("b", OUTCOME_LABELS),
        ("x", (0, 1)),
        ("y", (0, 1)),
        ("lam", ("free",)),
    ]
    # a = +1 (index 0) when y = 0 and -1 (index 1) when y = 1: a's index is y
    table = FiniteDistribution(variables, (y, fixed, x, y, fixed), np.full(4, 0.25))
    return ExactCSModel(table=table, hidden_vars=("lam",))


def table_entries(table) -> list:
    """``(assignment, weight)`` over a table's present cells in row-major
    order; an assignment lists one label per variable, in table order."""
    indices, weights = table.support(table.variables)
    columns = [
        [table.labels(n)[j] for j in c.tolist()] for n, c in zip(table.variables, indices)
    ]
    return list(zip(zip(*columns), weights.tolist()))


def dense_table(variables, w) -> FiniteDistribution:
    """The table whose joint probabilities are the dense array ``w``, one
    axis per variable in the order given: its nonzero cells become the
    constructor's entries."""
    w = np.asarray(w, dtype=np.float64)
    assert w.shape == tuple(len(labels) for _, labels in variables)
    cells = np.flatnonzero(w)
    return FiniteDistribution(variables, np.unravel_index(cells, w.shape), w.ravel()[cells])


def dense_weights(table) -> np.ndarray:
    """The whole table as a dense array, one axis per variable in table order."""
    w = np.zeros(tuple(len(table.labels(n)) for n in table.variables))
    indices, weights = table.support(table.variables)
    w[indices] = weights
    return w


def dense_marginal(table, names) -> np.ndarray:
    """P over ``names`` summed from the dense table, one axis per name in
    the order given."""
    axes = tuple(table.variables.index(n) for n in names)
    w = dense_weights(table)
    drop = tuple(i for i in range(w.ndim) if i not in axes)
    w = w.sum(axis=drop) if drop else w
    kept = sorted(axes)  # the axis order of w
    return np.transpose(w, [kept.index(i) for i in axes])


def dense_mutual_information(table, a, b) -> float:
    """I(A:B) in bits from the dense joint of A and B, not clamped."""
    pj = dense_marginal(table, tuple(a) + tuple(b))
    pj = pj.reshape(int(np.prod(pj.shape[: len(a)])), int(np.prod(pj.shape[len(a):])))
    pa = pj.sum(axis=1)
    pb = pj.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pj / (pa[:, None] * pb[None, :])
        terms = np.where(pj > 0.0, pj * np.log2(ratio), 0.0)
    return float(terms.sum())


def dense_conditional_mutual_information(table, a, b, c) -> float:
    """I(A:B|C) in bits from the dense joint of A, B and C, not clamped."""
    p = dense_marginal(table, tuple(a) + tuple(b) + tuple(c))
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
    return float(terms.sum())


def dense_locality_deviations(model) -> np.ndarray:
    """|P(a,b|x,y,lam) - P(a|x,lam) P(b|y,lam)| on the dense table, one
    axis per name in ("a", "b", "x", "y") + hidden variables; 0 off the
    support of (x, y, lambda)."""
    names = ("a", "b", "x", "y") + model.hidden_vars
    j = dense_marginal(model.table, names)
    shape = j.shape
    j = j.reshape(shape[:4] + (-1,))  # the hidden axes merged into one
    with np.errstate(divide="ignore", invalid="ignore"):
        resp_a = j.sum(axis=(1, 3)) / j.sum(axis=(0, 1, 3))  # P(a|x,lam)
        resp_b = j.sum(axis=(0, 2)) / j.sum(axis=(0, 1, 2))  # P(b|y,lam)
        dev = j / j.sum(axis=(0, 1))
        dev -= resp_a[:, None, :, None, :] * resp_b[None, :, None, :, :]
    return np.fmax(np.abs(dev), 0.0).reshape(shape)  # 0/0 = NaN becomes 0


def max_deviation(p: ConditionalTable, q: ConditionalTable) -> float:
    """Max |p - q| over every entry of two same-shaped conditional tables."""
    assert p.probs.shape == q.probs.shape
    return float(np.max(np.abs(p.probs - q.probs)))


# model-file payload of a one-setting local model: lam = +-1 fixes a = b = lam
LOCAL_MODEL = {
    "variables": [
        {"name": "a", "labels": [1, -1], "codes": [0, 1]},
        {"name": "b", "labels": [1, -1], "codes": [0, 1]},
        {"name": "x", "labels": [0], "codes": [0, 0]},
        {"name": "y", "labels": [0], "codes": [0, 0]},
        {"name": "lam", "labels": [1, -1], "codes": [0, 1]},
    ],
    "weights": [0.5, 0.5],
    "hidden_variables": ["lam"],
}


def local_model_with_lam_codes(codes) -> dict:
    """LOCAL_MODEL with the lam code column ``codes``."""
    lam = {**LOCAL_MODEL["variables"][4], "codes": codes}
    return {**LOCAL_MODEL, "variables": LOCAL_MODEL["variables"][:4] + [lam]}


def oracle_model_payload(model) -> dict:
    """A model file's payload built entry by entry, as plain lists: each
    entry's code along a variable is the position of its label in that
    variable's label list."""
    table = model.table
    entries = table_entries(table)
    variables = []
    for i, name in enumerate(table.variables):
        labels = table.labels(name)
        codes = [labels.index(assignment[i]) for assignment, _ in entries]
        variables.append({"name": name, "labels": list(labels), "codes": codes})
    return {
        "variables": variables,
        "weights": [p for _, p in entries],
        "hidden_variables": list(model.hidden_vars),
        "certificate": model.certificate,
    }


def row_payload(payload: dict) -> dict:
    """The parsed model file ``payload`` in the row layout, the one model
    files had before code columns: each variable without its codes, and
    one ``{"assignment": [label...], "p": weight}`` object per entry."""
    variables = payload["variables"]
    columns = [[v["labels"][k] for k in v["codes"]] for v in variables]
    return {
        **payload,
        "variables": [{"name": v["name"], "labels": v["labels"]} for v in variables],
        "weights": [
            {"assignment": list(assignment), "p": p}
            for assignment, p in zip(zip(*columns), payload["weights"])
        ],
    }


def assert_same_table(got, want) -> None:
    """``got`` and ``want`` hold the same variables, labels, support codes
    and weight bits."""
    assert got.variables == want.variables
    assert repr([got.labels(n) for n in got.variables]) == repr(
        [want.labels(n) for n in want.variables]
    )
    got_codes, got_w = got.support(got.variables)
    want_codes, want_w = want.support(want.variables)
    for g, w in zip(got_codes, want_codes):
        np.testing.assert_array_equal(g, w)
    assert got_w.tobytes() == want_w.tobytes()


def oracle_label(value, depth: int = 0):
    """A model label converted on its own: JSON arrays become tuples, and
    anything but a string, number or array of these, or an array nested
    more than :data:`bellmi.serialize.DEPTH_CAP` deep, raises
    :class:`ValueError`."""
    kind = type(value)
    if kind is list:
        if depth == serialize.DEPTH_CAP:
            raise ValueError(f"label nested more than {serialize.DEPTH_CAP} arrays deep")
        return tuple([oracle_label(v, depth + 1) for v in value])
    if kind is int or kind is str or kind is float:  # not bool, null or an object
        return value
    raise ValueError(f"label {value!r} is not a string, number or array of these")


def oracle_load_model(text: str) -> ExactCSModel:
    """A model file in the row layout (see :func:`row_payload`) read entry
    by entry: each assignment value maps to the declared label with the
    same ``repr``, or is converted on its own by :func:`oracle_label`, and
    then to its label index through a per-variable dict."""
    as_label, json_array = oracle_label, serialize._json_array
    payload = serialize.parse_json(text, "model file")
    try:
        variables, spelled = [], []
        for v in json_array(payload["variables"]):
            raw = json_array(v["labels"])
            labels = tuple(as_label(lab) for lab in raw)
            variables.append((serialize._as_name(v["name"]), labels))
            spelled.append(dict(zip(map(repr, raw), labels)))
        rows = json_array(payload["weights"])
        assignments = [json_array(w["assignment"]) for w in rows]
        probs = [w["p"] for w in rows]
        if not all(type(p) is int or type(p) is float for p in probs):
            raise TypeError("a weight is not a JSON number")
        probs = [float(p) for p in probs]
        if any(len(a) != len(variables) for a in assignments):
            raise ValueError(f"an assignment does not cover all {len(variables)} variables")
        columns = [
            [known[k] if (k := repr(v)) in known else as_label(v) for v in column]
            for known, column in zip(spelled, zip(*assignments))
        ]
        hidden = payload.get("hidden_variables")
        if hidden is not None:
            hidden = tuple(serialize._as_name(h) for h in json_array(hidden))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"model file: bad structure ({exc})") from None
    lookup = [{lab: j for j, lab in enumerate(labs)} for _, labs in variables]
    try:
        codes = [[index[lab] for lab in column] for index, column in zip(lookup, columns)]
    except KeyError as exc:
        raise ConfigError(f"an assignment uses the unknown label {exc.args[0]!r}") from None
    codes = np.array(codes, dtype=np.intp).reshape(len(variables), len(probs))
    table = FiniteDistribution(variables, codes, probs)
    if hidden is None:
        hidden = tuple(n for n in table.variables if n not in ("a", "b", "x", "y"))
    return ExactCSModel(table=table, hidden_vars=hidden)
