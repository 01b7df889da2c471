"""Symmetry relations of the Monte Carlo path that hold at a fixed seed.

No draw reads a setting's value: the settings draw reads only p_xy, and the
hidden vectors are drawn before any dot product.  The singlet correlator
E = -x.y is odd in each setting, and so is every dot the models take, bit
for bit, since negating a factor negates a product and a rounded sum
exactly.  So negating a party's settings flips that party's outcome in
every round, and nothing else moves; only a round with an exact-zero dot,
where sgn(0) = +1 breaks the symmetry, could part from this, and none
occurs at these seeds.  Pinned hashes show that bytes did not move; these
relations also hold for bytes that a deliberate change re-pins.

Guarded code: ``SettingsSpec.sample_indices``, the models'
``sample_rounds``, ``_kernels.tb_outcomes``, ``_kernels.gg_outcomes`` and
``_kernels.tally`` through ``analysis.estimate_correlations``, and
``_kernels.agreement_probs`` through ``analysis.mi_finite_settings_tb``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellmi.analysis import CHUNK_ROUNDS, estimate_correlations, mi_finite_settings_tb
from bellmi.models import GisinGisinModel, SettingsSpec, TonerBaconModel, preset
from bellmi.sphere import RandomSource

# three chunks, so --parallelism 3 fills three buffer sets at once
ROUNDS = 2 * CHUNK_ROUNDS + 123
MODELS = [TonerBaconModel(), GisinGisinModel()]


def _random_spec(seed: int, n_a: int = 5, n_b: int = 4, uniform: bool = False) -> SettingsSpec:
    """Seeded random unit settings with a non-product p_xy, or a uniform one."""
    gen = np.random.default_rng([seed, n_a, n_b])
    v = gen.standard_normal((n_a + n_b, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    p = gen.random((n_a, n_b))
    return SettingsSpec(v[:n_a], v[n_a:], None if uniform else p / p.sum())


SPECS = {"chsh": lambda: preset("chsh"), "5x4": lambda: _random_spec(3)}


def _negated(spec: SettingsSpec, alice: bool) -> SettingsSpec:
    """``spec`` with every setting of Alice, or else of Bob, negated."""
    if alice:
        return SettingsSpec(-spec.alice_settings, spec.bob_settings, spec.p_xy)
    return SettingsSpec(spec.alice_settings, -spec.bob_settings, spec.p_xy)


def _assert_party_flips(model, spec, rounds, seed, parallelism, alice):
    """Negating one party's settings reverses that party's outcome axis of
    the counts (axis 2 for a, 3 for b) and leaves the attempts, bit for bit."""
    base = estimate_correlations(model, spec, rounds, RandomSource(seed), parallelism)
    est = estimate_correlations(model, _negated(spec, alice), rounds, RandomSource(seed),
                                parallelism)
    np.testing.assert_array_equal(est.counts, np.flip(base.counts, axis=2 if alice else 3))
    np.testing.assert_array_equal(est.attempts, base.attempts)
    return base


@pytest.mark.parametrize("parallelism", [1, 2, 3])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("model", MODELS, ids=["tb", "gg"])
def test_negating_bob_settings_flips_b_in_every_round(model, spec_name, parallelism):
    # TB: b = sgn(y.(l1 + m l2)) with l1, l2 and m blind to y; GG: b = -sgn(y.lam)
    base = _assert_party_flips(model, SPECS[spec_name](), ROUNDS, 3, parallelism, alice=False)
    assert not np.array_equal(base.counts, np.flip(base.counts, axis=3))  # not vacuous


@pytest.mark.parametrize("parallelism", [1, 2, 3])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("model", MODELS, ids=["tb", "gg"])
def test_negating_alice_settings_flips_a_in_every_round(model, spec_name, parallelism):
    # TB: a = -sgn(x.l1) flips while m = sgn(x.l1) sgn(x.l2), and so Bob,
    # stays; GG: a = sgn(x.lam) flips while the click, u < |x.lam|, stays
    base = _assert_party_flips(model, SPECS[spec_name](), ROUNDS, 3, parallelism, alice=True)
    assert not np.array_equal(base.counts, np.flip(base.counts, axis=2))  # not vacuous


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2**32 - 1))
def test_negation_relations_on_random_specs(spec_seed, n_a, n_b, seed):
    spec = _random_spec(spec_seed, n_a, n_b)
    for model in MODELS:
        for alice in (True, False):
            _assert_party_flips(model, spec, 3000, seed, 1, alice)


@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_tb_finite_ignores_the_sign_of_alice_settings(spec_name):
    # p(mu) sums p_x[j] over the settings whose dots with l1 and l2 share a
    # sign, and negating a setting negates both dots
    spec = SPECS[spec_name]()
    for parallelism in (1, 2):
        base = mi_finite_settings_tb(spec, ROUNDS, RandomSource(4), parallelism)
        neg = mi_finite_settings_tb(_negated(spec, alice=True), ROUNDS, RandomSource(4),
                                    parallelism)
        assert (neg.value, neg.uncertainty) == (base.value, base.uncertainty)


def _permuted_alice(spec: SettingsSpec, perm) -> SettingsSpec:
    """Alice's settings reordered by ``perm``, the rows of p_xy with them."""
    return SettingsSpec(spec.alice_settings[perm], spec.bob_settings, spec.p_xy[perm])


@pytest.mark.parametrize("spec", [preset("chsh"), _random_spec(5, uniform=True)],
                         ids=["chsh", "5x4-uniform"])
def test_tb_finite_ignores_the_order_of_alice_settings_with_uniform_p_x(spec):
    # every term of p(mu) is the same p_x or 0.0, so any order adds the same floats
    perm = np.roll(np.arange(spec.n_alice), 1)
    base = mi_finite_settings_tb(spec, ROUNDS, RandomSource(6))
    est = mi_finite_settings_tb(_permuted_alice(spec, perm), ROUNDS, RandomSource(6))
    assert (est.value, est.uncertainty) == (base.value, base.uncertainty)


@pytest.mark.parametrize("seed", range(6))
def test_tb_finite_keeps_its_value_under_a_permutation_of_alice_settings(seed):
    # _kernels.agreement_probs adds the p_x[j] in setting order, so with
    # unequal p_x a permutation reorders a float sum: the value moves by
    # rounding only, by up to 5.6e-16 and on four of these six seeds, and
    # 1e-12 leaves room for another BLAS while a weight that left its
    # setting moves it by far more
    spec = _random_spec(seed)
    perm = np.random.default_rng(seed).permutation(spec.n_alice)
    assert (perm != np.arange(spec.n_alice)).any()
    base = mi_finite_settings_tb(spec, 20_000, RandomSource(seed))
    est = mi_finite_settings_tb(_permuted_alice(spec, perm), 20_000, RandomSource(seed))
    assert abs(est.value - base.value) <= 1e-12
    assert abs(est.uncertainty - base.uncertainty) <= 1e-12
