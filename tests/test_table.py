"""Exact finite distributions and the information measures on them."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellmi import analysis, serialize, table, transforms
from bellmi.errors import ConfigError, ValidationError
from bellmi.models import input_broadcast_build, pr_box_conditional, preset
from bellmi.table import FiniteDistribution, binary_entropy, group_sums
from conftest import dense_conditional_mutual_information, dense_table, table_entries


def random_table(gen, shape, names):
    w = gen.random(shape)
    w /= w.sum()
    variables = [(n, tuple(range(k))) for n, k in zip(names, shape)]
    return dense_table(variables, w)


def test_weights_must_normalize():
    with pytest.raises(ValidationError):
        dense_table([("x", (0, 1))], np.array([0.6, 0.6]))
    with pytest.raises(ValidationError):
        dense_table([("x", (0, 1))], np.array([1.2, -0.2]))


def test_prob_and_marginal():
    t = dense_table(
        [("x", (0, 1)), ("y", ("u", "v"))],
        np.array([[0.1, 0.2], [0.3, 0.4]]),
    )
    assert t.marginal(["x", "y"])[1, 0] == 0.3
    np.testing.assert_allclose(t.marginal(["x"]), [0.3, 0.7])
    np.testing.assert_allclose(t.marginal(["y"]), [0.4, 0.6])
    # one axis per name, in the order asked, whatever the table's own order
    np.testing.assert_array_equal(t.marginal(["y", "x"]), [[0.1, 0.3], [0.2, 0.4]])
    for names in ((), ("z",), ("x", "x")):
        with pytest.raises(ConfigError):
            t.marginal(names)


def test_marginal_over_every_variable_is_the_dense_table():
    gen = np.random.default_rng(3)
    w = gen.random((2, 3, 4))
    w[0, 1, :] = 0.0  # absent cells come back as zeros
    w /= w.sum()
    t = dense_table([(n, tuple(range(k))) for n, k in zip("abc", w.shape)], w)
    for names in (t.variables, ("c", "a", "b")):
        m = t.marginal(names)
        # a fresh read-only array with its axes in the order asked
        order = [t.variables.index(n) for n in names]
        np.testing.assert_array_equal(m, np.transpose(w, order))
        assert not np.shares_memory(m, t.weights) and not m.flags.writeable
    summed = t.marginal(("c", "a"))
    assert summed.shape == (4, 2) and not summed.flags.writeable
    with pytest.raises(ValueError):
        summed[0, 0] = 1.0


def test_entropy_uniform_is_log2():
    for k in (2, 3, 8):
        t = dense_table([("x", tuple(range(k)))], np.full(k, 1.0 / k))
        assert t.entropy(t.variables) == pytest.approx(math.log2(k), abs=1e-12)
    # zero cells contribute nothing
    t = dense_table([("x", (0, 1, 2))], np.array([0.5, 0.5, 0.0]))
    assert t.entropy(t.variables) == pytest.approx(1.0, abs=1e-15)


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    p = np.linspace(0.01, 0.99, 23)
    np.testing.assert_allclose(binary_entropy(p), binary_entropy(1.0 - p), atol=1e-14)
    with pytest.raises(ValidationError):
        binary_entropy(1.0000001)
    with pytest.raises(ValidationError):
        binary_entropy(np.array([0.5, -0.1]))


def test_mutual_information_exact_zero_for_dyadic_products():
    # dyadic weights re-marginalize bitwise, so the KL form returns 0.0
    t = dense_table(
        [("x", (0, 1)), ("y", (0, 1))],
        np.outer([0.25, 0.75], [0.5, 0.5]),
    )
    assert t.mutual_information(("x",), ("y",)) == 0.0


def test_mutual_information_near_zero_for_float_products():
    gen = np.random.default_rng(11)
    for _ in range(20):
        pa = gen.random(3)
        pa /= pa.sum()
        pb = gen.random(4)
        pb /= pb.sum()
        t = dense_table([("x", (0, 1, 2)), ("y", (0, 1, 2, 3))], np.outer(pa, pb))
        assert abs(t.mutual_information(("x",), ("y",))) <= 1e-12


def test_mutual_information_of_copy_is_entropy():
    w = np.zeros((3, 3))
    np.fill_diagonal(w, [0.2, 0.3, 0.5])
    t = dense_table([("x", (0, 1, 2)), ("y", (0, 1, 2))], w)
    h = t.entropy(("x",))
    assert t.mutual_information(("x",), ("y",)) == pytest.approx(h, abs=1e-12)


def test_chain_rule_property():
    # I(X : Y,Z) = I(X:Y) + I(X:Z|Y) on random tables, I(X:Z|Y) from the
    # dense oracle
    gen = np.random.default_rng(7)
    for _ in range(25):
        t = random_table(gen, (2, 3, 2), ("x", "y", "z"))
        lhs = t.mutual_information(("x",), ("y", "z"))
        rhs = t.mutual_information(("x",), ("y",)) + dense_conditional_mutual_information(
            t, ("x",), ("z",), ("y",)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conditional_mi_with_empty_conditioner_is_mi():
    # the dense oracle that the chain identities read agrees with the table
    gen = np.random.default_rng(3)
    t = random_table(gen, (2, 4), ("x", "y"))
    assert dense_conditional_mutual_information(t, ("x",), ("y",), ()) == pytest.approx(
        t.mutual_information(("x",), ("y",)), abs=1e-12
    )


def test_from_entries_round_trip():
    # entries (1, v): 0.5, (1, u): 0.25 and (0, v): 0.125 twice, a code
    # column per variable
    variables = [("x", (0, 1)), ("y", ("u", "v"))]
    t = FiniteDistribution.from_entries(
        variables, [[1, 1, 0, 0], [1, 0, 1, 1]], [0.5, 0.25, 0.125, 0.125]
    )
    # nonzero cells only, in row-major order whatever the input order
    assert table_entries(t) == [((0, "v"), 0.25), ((1, "u"), 0.25), ((1, "v"), 0.5)]
    with pytest.raises(ConfigError, match="a code column for each of the 2 variables"):
        FiniteDistribution.from_entries(variables, [[1, 1, 0]], [0.5, 0.25, 0.25])
    with pytest.raises(ConfigError, match="variable 'y' has 2 codes for 3 weights"):
        FiniteDistribution.from_entries(variables, [[1, 1, 0], [1, 0]], [0.5, 0.25, 0.25])
    with pytest.raises(ConfigError, match=r"codes of variable 'y' must lie in \[0, 2\)"):
        FiniteDistribution.from_entries(variables, [[1, 1, 0], [1, 2, 1]], [0.5, 0.25, 0.25])
    with pytest.raises(ConfigError, match="codes of variable 'x' must be integers, got bool"):
        FiniteDistribution.from_entries(variables, [[1, True, 0], [1, 0, 1]], [0.5, 0.25, 0.25])


def test_table_stores_only_its_support():
    # 48 weights over 48**3 cells: memory follows the weights, not the cells
    variables = [(n, tuple(range(48))) for n in ("x", "y", "z")]
    columns, weights = [list(range(48))] * 3, [1.0 / 48] * 48
    tracemalloc.start()
    try:
        t = FiniteDistribution.from_entries(variables, columns, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.weights.shape == (48,) and not t.weights.flags.writeable
    assert peak < 64 * 1024, f"peak {peak} B for 48 weights"
    (x, y, z), w = t.support(("x", "y", "z"))
    np.testing.assert_array_equal(x, np.arange(48))
    assert not x.flags.writeable and w is t.weights


def test_constructor_accumulates_in_entry_order_and_drops_zeros():
    variables = [("x", ("u", "v", "w")), ("y", (0, 1))]
    p = [0.1, 0.2, 0.3, -0.3, 0.25, 0.45]
    t = FiniteDistribution(variables, ([2, 0, 1, 1, 2, 2], [1, 1, 0, 0, 1, 0]), p)
    # x = w, y = 1 adds 0.1 then 0.25, as w[idx] += p would; (v, 0) sums to 0
    assert table_entries(t) == [(("u", 1), 0.2), (("w", 0), 0.45), (("w", 1), 0.1 + 0.25)]


def test_alphabets_must_fit_int64_codes():
    labels = tuple(range(10_000))
    with pytest.raises(ConfigError, match="int64"):  # 10**20 cells
        FiniteDistribution([(n, labels) for n in "vwxyz"], [[0]] * 5, [1.0])
    t = FiniteDistribution([(n, labels) for n in "xy"], ([5], [7]), [1.0])
    assert table_entries(t) == [((5, 7), 1.0)]
    np.testing.assert_array_equal(np.flatnonzero(t.marginal(("y",))), [7])
    with pytest.raises(ConfigError, match="cap"):  # a dense 10**8-cell marginal
        t.marginal(("x", "y"))


def test_constructor_copies_the_callers_weights():
    w = np.array([0.25, 0.75])
    t = FiniteDistribution([("x", (0, 1))], ([0, 1],), w)
    w[0] = 0.5
    assert t.weights[0] == 0.25 and not t.weights.flags.writeable


def test_a_table_needs_a_variable():
    with pytest.raises(ConfigError, match="at least one variable"):
        FiniteDistribution([], (), [1.0])


def _sorted_group_sums(keys, weights):
    """``group_sums`` through ``np.unique``, whatever the order of the keys."""
    distinct, group = np.unique(keys, return_inverse=True)
    return distinct, group, np.bincount(group, weights=weights, minlength=distinct.size)


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


@pytest.mark.parametrize("keys, weights", [
    ([0, 3, 7, 8], [0.25, -0.0, 0.5, 0.25]),  # strictly increasing
    ([-4, -1, 9], [-0.0, 0.5, 0.5]),
    ([5], [-0.0]),  # one key
    ([], []),
    ([3, 0, 7], [0.5, 0.25, 0.25]),  # unsorted
    ([0, 3, 3, 7], [0.25, 0.125, 0.375, 0.25]),  # repeated
    ([2, 2], [-0.0, -0.0]),  # 0.0 + -0.0 + -0.0 sums to 0.0
])
def test_group_sums_matches_the_sort_path(keys, weights):
    keys, weights = np.array(keys, dtype=np.int64), np.array(weights)
    got = group_sums(keys, weights)
    _assert_bitwise_equal(got, _sorted_group_sums(keys, weights))
    assert got[2] is not weights


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.integers(-3, 40), st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, 1.0]), st.floats(-2.0, 2.0)
    ))),
    st.booleans(),
)
def test_group_sums_matches_the_sort_path_on_random_keys(entries, increasing):
    if increasing:  # the first entry of each key, in key order
        entries = sorted(dict(reversed(entries)).items())
    keys = np.array([k for k, _ in entries], dtype=np.int64)
    weights = np.array([w for _, w in entries], dtype=np.float64)
    _assert_bitwise_equal(group_sums(keys, weights), _sorted_group_sums(keys, weights))


def test_group_sums_skips_the_sort_of_increasing_keys(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called on strictly increasing keys")

    monkeypatch.setattr(table.np, "unique", refuse)
    keys = np.array([1, 4, 6])
    distinct, group, sums = group_sums(keys, np.array([0.5, -0.0, 0.5]))
    assert distinct is keys
    np.testing.assert_array_equal(group, [0, 1, 2])
    assert sums.tobytes() == np.array([0.5, 0.0, 0.5]).tobytes()


def test_no_caller_writes_into_the_group_sums_arrays(monkeypatch):
    # the fast path hands back the caller's keys as the distinct keys, so
    # every array in and out is frozen while the exact path runs
    fast = []

    def frozen(keys, weights):
        out = group_sums(keys, weights)
        for array in (keys, weights) + out:
            array.setflags(write=False)
        fast.append(out[0] is keys)
        return out

    monkeypatch.setattr(table, "group_sums", frozen)
    monkeypatch.setattr(analysis, "group_sums", frozen)
    spec = preset("chsh")
    brans, _ = transforms.brans_to_cs(analysis.exact_singlet_conditional(spec), spec)
    broadcast, _ = transforms.comm_to_cs(input_broadcast_build(pr_box_conditional(), spec), spec)
    for model in (brans, broadcast):
        loaded = serialize.load_model(serialize.json_text(serialize.model_payload(model)))
        assert analysis.verify_bell_local(loaded).ok
        analysis.mi_exact_finite(loaded)
        loaded.table.marginal(("x", "y", "a", "b"))
        loaded.table.mutual_information(("a", "x"), ("b", "y"))
    assert any(fast) and not all(fast)
