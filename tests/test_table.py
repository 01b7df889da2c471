"""Exact finite distributions and the information measures on them."""

import math

import numpy as np
import pytest

from bellmi.errors import ConditioningError, ValidationError
from bellmi.table import FiniteDistribution, binary_entropy, product_table


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
    assert t.prob({"x": 1, "y": "u"}) == 0.3
    mx = t.marginal(["x"])
    assert mx.variables == ("x",)
    assert np.allclose(mx.weights, [0.3, 0.7])
    # marginal keeps canonical variable order regardless of request order
    myx = t.marginal(["y", "x"])
    assert myx.variables == ("x", "y")
    assert myx.prob({"y": "v", "x": 0}) == 0.2


def test_marginal_over_every_variable_is_the_table_itself():
    t = random_table(np.random.default_rng(3), (2, 3, 4), ("a", "b", "c"))
    assert t.marginal(t.variables) is t
    assert t.marginal(("c", "a", "b")) is t


def test_condition_renormalizes_with_point_mass_evidence():
    t = FiniteDistribution(
        [("x", (0, 1)), ("y", (0, 1))],
        np.array([[0.5, 0.25], [0.25, 0.0]]),
    )
    c = t.condition({"x": 0})
    assert c.variables == ("x", "y")
    assert c.prob({"x": 0, "y": 0}) == pytest.approx(2 / 3, abs=1e-15)
    assert c.prob({"x": 1, "y": 0}) == 0.0
    with pytest.raises(ConditioningError):
        FiniteDistribution(
            [("x", (0, 1)), ("y", (0, 1))],
            np.array([[0.5, 0.5], [0.0, 0.0]]),
        ).condition({"x": 1})


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


def test_product_table_builds_independent_joint():
    a = FiniteDistribution([("x", (0, 1))], np.array([0.25, 0.75]))
    b = FiniteDistribution([("y", (0, 1))], np.array([0.5, 0.5]))
    j = product_table(a, b)
    assert j.variables == ("x", "y")
    assert j.mutual_information(("x",), ("y",)) == 0.0


def test_from_entries_round_trip():
    entries = [((0, "u"), 0.25), ((1, "v"), 0.75)]
    t = FiniteDistribution.from_entries(
        [("x", (0, 1)), ("y", ("u", "v"))], entries
    )
    got = dict(t.entries(nonzero=True))
    assert got == {(0, "u"): 0.25, (1, "v"): 0.75}
