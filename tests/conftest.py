import tracemalloc

import numpy as np
import pytest

from plumesense.channel import ChannelParams

# standard indoor parameters used throughout: wind 140 cm/s, eddy
# diffusivity 0.242 cm^2/s, source/receiver height 180 cm, sphere radius 2 cm
WIND = 140.0
DIFFUSIVITY = 0.242
HEIGHT = 180.0
RADIUS = 2.0


@pytest.fixture(scope="session")
def params():
    return ChannelParams.with_constant(WIND, DIFFUSIVITY)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def simpson(f, a, b, n):
    """Composite Simpson quadrature with n (even) panels."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def traced_peak(call):
    """The call's result and the most memory it held at once under
    tracemalloc, beyond what was held before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
