import numpy as np
import pytest

from aerotrace.errors import DataError
from aerotrace.synth import SceneObject, SceneScript, render_frame


@pytest.mark.parametrize("level", [-99999, -511, -256, -40, 0, 128, 255, 300, 511, 99999])
def test_background_level_is_clipped_as_the_frame_is(level):
    """Any background level renders as ``clip(level + noise, 0, 255)`` per pixel."""
    script = SceneScript(width=6, height=4, duration_s=1, background=level, noise=255)
    for idx in range(3):
        noise = np.random.default_rng((9, idx)).integers(-255, 256, (4, 6), dtype=np.int16)
        expected = np.clip(level + noise.astype(np.int64), 0, 255)
        assert np.array_equal(render_frame(script, idx, seed=9), expected)


@pytest.mark.parametrize("width, height", [(1, 1), (65535, 1), (1, 65535)])
def test_frame_size_bounds_are_inclusive(width, height):
    SceneScript(width=width, height=height)


@pytest.mark.parametrize("change, message", [
    (dict(width=0), "frame size 0x182"), (dict(height=65536), "frame size 324x65536"),
    (dict(noise=-1), "noise=-1"), (dict(noise=256), "noise=256"),
])
def test_values_a_frame_cannot_hold_are_refused(change, message):
    with pytest.raises(DataError, match=message):
        SceneScript(**change)


@pytest.mark.parametrize("intensity", [-1, 256])
def test_object_intensity_a_frame_cannot_hold_is_refused(intensity):
    with pytest.raises(DataError, match=f"^object car: intensity={intensity} outside"):
        SceneObject("car", 4, 4, 0.0, 0.0, 1.0, 0.0, intensity)
