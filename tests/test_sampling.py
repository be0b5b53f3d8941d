import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gradiform
from gradiform.sampling import _CLIP, _EXP_M2, _halton, _ndtri, sample_ball

# measured over 2e6 inputs in [1e-12, 1 - 1e-12]: 99.994% equal, at most
# 4 ulp apart (numpy's log against the C library's)
NDTRI_MAX_ULP = 4


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), count=st.integers(1, 5000),
       seed=st.integers(0, 2 ** 63))
# the smallest counts: a lone point is all trailing digits
@example(dim=1, count=1, seed=0)
@example(dim=3, count=1, seed=7)
@example(dim=1, count=2, seed=7)
def test_halton_bit_equal_to_reference(dim, count, seed):
    qmc = pytest.importorskip("scipy.stats").qmc
    ref = qmc.Halton(d=dim, scramble=True, seed=seed).random(count)
    assert np.array_equal(_halton(dim, count, seed), ref)


def _around(x, k=200):
    """x and its k nearest doubles on either side."""
    lo, hi = [x], [x]
    for _ in range(k):
        lo.append(np.nextafter(lo[-1], 0.0))
        hi.append(np.nextafter(hi[-1], 1.0))
    return lo + hi


def test_ndtri_within_ulp_bound():
    ndtri = pytest.importorskip("scipy.special").ndtri
    rng = np.random.default_rng(0)
    edges = [_EXP_M2, 1.0 - _EXP_M2, 0.5, _CLIP, 1.0 - _CLIP]
    y = np.concatenate([
        rng.uniform(_CLIP, 1.0 - _CLIP, 100_000),
        10.0 ** rng.uniform(-12.0, np.log10(0.5), 50_000),
        1.0 - 10.0 ** rng.uniform(-12.0, np.log10(0.5), 50_000),
        *[_around(e) for e in edges]])
    y = np.clip(y, _CLIP, 1.0 - _CLIP)
    got, ref = _ndtri(y), ndtri(y)
    # at y = 0.5 the reference is 0, and only 0 passes
    ulp = np.abs(got - ref) / np.spacing(np.abs(ref))
    assert ulp.max() <= NDTRI_MAX_ULP


def test_clip_keeps_ndtri_in_its_tail_branch():
    # P1/Q1 hold for sqrt(-2 log y) < 8; the P2/Q2 branch beyond is left out
    assert np.sqrt(-2.0 * np.log(_CLIP)) < 7.44 < 8.0
    assert np.all(np.isfinite(_ndtri(np.array([_CLIP, 1.0 - _CLIP]))))


def test_sample_ball_cli_default_pinned():
    # samples at the CLI defaults, as the scipy-backed sampler drew them
    x = sample_ball(3, 64, 1.5, 12345)
    assert x.shape == (64, 3)
    assert x[0].tolist() == [-0.9560442512210655, 0.21897281462535073,
                             0.8725018427354339]
    assert x[-1].tolist() == [1.0242016661905662, 0.28696152575522693,
                              -0.6777817716046146]
    assert hashlib.sha256(x.astype("<f8").tobytes()).hexdigest() == (
        "a2443f8314e9ca2ceb2cccbe812179ab080a42ea39116b8c6254a23099085e6f")


def test_sample_ball_inside_radius():
    for dim in (1, 2, 3, 5):
        x = sample_ball(dim, 200, 1.5, 7)
        assert x.shape == (200, dim)
        assert np.all(np.linalg.norm(x, axis=1) <= 1.5)


@pytest.mark.parametrize("count", [0, -1])
def test_sample_ball_needs_a_point(count):
    with pytest.raises(ValueError, match="count must be at least 1"):
        sample_ball(2, count)


@pytest.mark.parametrize("dim", [0, -1])
def test_sample_ball_needs_a_dimension(dim):
    with pytest.raises(ValueError, match="dim and count must be at least 1"):
        sample_ball(dim, 5)


@pytest.mark.parametrize("radius", [np.nan, -1.0, np.inf])
def test_sample_ball_needs_a_finite_nonnegative_radius(radius):
    with pytest.raises(ValueError, match="radius must be finite and >= 0"):
        sample_ball(2, 5, radius)


@pytest.mark.parametrize("dim", [1, 3])
def test_sample_ball_of_radius_zero_is_the_center(dim):
    assert np.array_equal(sample_ball(dim, 4, 0.0), np.zeros((4, dim)))


def test_cli_import_loads_no_scipy():
    src = str(Path(gradiform.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, gradiform.cli; "
            "loaded = [m for m in sys.modules if m.startswith('scipy')]; "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
