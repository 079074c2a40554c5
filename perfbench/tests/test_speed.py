"""Each timed call is scaled by the samples on either side of it."""

import pytest

import speed


class FixedSpeed(speed.Speed):
    """Samples return preset seconds instead of timing the computation."""

    def __init__(self, seconds):
        super().__init__()
        self._seconds = iter(seconds)

    def sample(self) -> float:
        s = next(self._seconds)
        self.samples.append((0.0, s / 2, s / 2))
        return s


def test_each_part_scaled_by_its_neighbouring_samples():
    host = FixedSpeed([speed.REF_S, 2 * speed.REF_S, 3 * speed.REF_S])
    results, calls = host.timed(lambda: "a", lambda: "b")
    assert results == ["a", "b"]
    (_, wall_a, scaled_a), (_, wall_b, scaled_b) = calls
    assert scaled_a == pytest.approx(wall_a / 1.5)
    assert scaled_b == pytest.approx(wall_b / 2.5)
    assert speed.wall(calls) == wall_a + wall_b
    assert speed.scaled(calls) == scaled_a + scaled_b


def test_back_to_back_calls_share_a_sample():
    host = FixedSpeed([speed.REF_S, speed.REF_S, 4 * speed.REF_S])
    host.timed(lambda: None)
    _, [(_, wall, scaled)] = host.timed(lambda: None)
    assert len(host.samples) == 3
    assert scaled == pytest.approx(wall / 2.5)
