"""Property tests (hypothesis) for the batched windowed back-projection."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from limitomo import (  # noqa: E402
    AngularWindow,
    ImageGrid,
    Sinogram,
    SinogramGrid,
    WeightFunction,
    backproject,
    backproject_windows,
)

GRID = ImageGrid(12, 1.2)
SGRID = SinogramGrid(n_phi=17, n_s=21, s_max=1.8, phi0=0.0, phi1=math.pi)


@st.composite
def windows(draw):
    ends = st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return AngularWindow(a, b, "finite-order", draw(st.integers(1, 6)))


@settings(max_examples=40, deadline=None)
@given(wins=st.lists(windows(), min_size=1, max_size=4),
       values=st.lists(st.floats(-1e3, 1e3), min_size=SGRID.n_phi * SGRID.n_s,
                       max_size=SGRID.n_phi * SGRID.n_s),
       lam=st.sampled_from([None, -0.7, 0.5]))
def test_batched_backprojection_is_bitwise_single(wins, values, lam):
    g = Sinogram(SGRID, np.reshape(values, (SGRID.n_phi, SGRID.n_s)))
    nu = WeightFunction.constant(1.0) if lam is None else WeightFunction.exponential(lam)
    for win, img in zip(wins, backproject_windows(g, nu, wins, GRID)):
        np.testing.assert_array_equal(img.values, backproject(g, nu, win, GRID).values)
