import pytest


@pytest.fixture
def no_points(monkeypatch):
    """Fail at once, instead of filling memory, if a critical point is built."""
    def refuse(*args, **kwargs):
        raise AssertionError("a point was enumerated")
    monkeypatch.setattr("wsabsorb.spectral.SpectralPoint", refuse)
