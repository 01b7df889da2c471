"""Exact finite distributions and the information measures on them."""

import math
import tracemalloc

import numpy as np
import pytest

from bellmi.errors import ConfigError, ValidationError
from bellmi.table import FiniteDistribution, binary_entropy


def random_table(gen, shape, names):
    w = gen.random(shape)
    w /= w.sum()
    variables = [(n, tuple(range(k))) for n, k in zip(names, shape)]
    return FiniteDistribution(variables, w)


def test_weights_must_normalize():
    with pytest.raises(ValidationError):
        FiniteDistribution([("x", (0, 1))], np.array([0.6, 0.6]))
    with pytest.raises(ValidationError):
        FiniteDistribution([("x", (0, 1))], np.array([1.2, -0.2]))


def test_prob_and_marginal():
    t = FiniteDistribution(
        [("x", (0, 1)), ("y", ("u", "v"))],
        np.array([[0.1, 0.2], [0.3, 0.4]]),
    )
    assert t.weights[1, 0] == 0.3
    np.testing.assert_allclose(t.marginal(["x"]), [0.3, 0.7])
    np.testing.assert_allclose(t.marginal(["y"]), [0.4, 0.6])
    # one axis per name, in the order asked, whatever the table's own order
    np.testing.assert_array_equal(t.marginal(["y", "x"]), [[0.1, 0.3], [0.2, 0.4]])
    for names in ((), ("z",), ("x", "x")):
        with pytest.raises(ConfigError):
            t.marginal(names)


def test_marginal_over_every_variable_is_the_table_itself():
    t = random_table(np.random.default_rng(3), (2, 3, 4), ("a", "b", "c"))
    for names in (t.variables, ("c", "a", "b")):
        m = t.marginal(names)
        # a view of the weights, not a copy, with its axes in the order asked
        assert np.shares_memory(m, t.weights)
        order = [t.variables.index(n) for n in names]
        np.testing.assert_array_equal(m, np.transpose(t.weights, order))
        assert not m.flags.writeable
    summed = t.marginal(("c", "a"))
    assert summed.shape == (4, 2) and not summed.flags.writeable
    with pytest.raises(ValueError):
        summed[0, 0] = 1.0


def test_entropy_uniform_is_log2():
    for k in (2, 3, 8):
        t = FiniteDistribution([("x", tuple(range(k)))], np.full(k, 1.0 / k))
        assert t.entropy() == pytest.approx(math.log2(k), abs=1e-12)
    # zero cells contribute nothing
    t = FiniteDistribution([("x", (0, 1, 2))], np.array([0.5, 0.5, 0.0]))
    assert t.entropy() == pytest.approx(1.0, abs=1e-15)


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
    t = FiniteDistribution(
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
        t = FiniteDistribution(
            [("x", (0, 1, 2)), ("y", (0, 1, 2, 3))], np.outer(pa, pb)
        )
        assert abs(t.mutual_information(("x",), ("y",))) <= 1e-12


def test_mutual_information_of_copy_is_entropy():
    w = np.zeros((3, 3))
    np.fill_diagonal(w, [0.2, 0.3, 0.5])
    t = FiniteDistribution([("x", (0, 1, 2)), ("y", (0, 1, 2))], w)
    h = t.entropy(("x",))
    assert t.mutual_information(("x",), ("y",)) == pytest.approx(h, abs=1e-12)


def test_chain_rule_property():
    # I(X : Y,Z) = I(X:Y) + I(X:Z|Y) on random tables
    gen = np.random.default_rng(7)
    for _ in range(25):
        t = random_table(gen, (2, 3, 2), ("x", "y", "z"))
        lhs = t.mutual_information(("x",), ("y", "z"))
        rhs = t.mutual_information(("x",), ("y",)) + t.conditional_mutual_information(
            ("x",), ("z",), ("y",)
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conditional_mi_with_empty_conditioner_is_mi():
    gen = np.random.default_rng(3)
    t = random_table(gen, (2, 4), ("x", "y"))
    assert t.conditional_mutual_information(("x",), ("y",), ()) == pytest.approx(
        t.mutual_information(("x",), ("y",)), abs=1e-12
    )


def test_from_entries_round_trip():
    entries = [((1, "v"), 0.5), ((1, "u"), 0.25), ((0, "v"), 0.25)]
    t = FiniteDistribution.from_entries(
        [("x", (0, 1)), ("y", ("u", "v"))], entries
    )
    # nonzero cells only, in row-major order whatever the input order
    assert list(t.entries()) == [((0, "v"), 0.25), ((1, "u"), 0.25), ((1, "v"), 0.5)]


def test_from_entries_builds_its_table_once():
    # the dense array it fills becomes the table: no second table-sized copy
    variables = [(n, tuple(range(48))) for n in ("x", "y", "z")]
    entries = [((i, i, i), 1.0 / 48) for i in range(48)]
    tracemalloc.start()
    try:
        t = FiniteDistribution.from_entries(variables, entries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * t.weights.nbytes, f"peak {peak} B for a {t.weights.nbytes} B table"
    assert not t.weights.flags.writeable


def test_constructor_copies_the_callers_weights():
    w = np.array([0.25, 0.75])
    t = FiniteDistribution([("x", (0, 1))], w)
    w[0] = 0.5
    assert t.weights[0] == 0.25 and not t.weights.flags.writeable
