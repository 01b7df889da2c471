"""Edge cases of the Monte Carlo outcome kernels."""

import numpy as np

from bellmi import _kernels as K


def test_tb_flags_vanishing_bob_direction():
    # l1 + m*l2 = 0 needs antipodal shared vectors orthogonal to x (both
    # sgn ties break to +1, giving m = +1); Bob's direction is undefined
    xs = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    ys = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    l1 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    l2 = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    _, _, m, bad = K.tb_outcomes(xs, ys, l1, l2)
    assert m[0] == 1
    assert bad[0]
    assert not bad[1]
