import signal
from contextlib import contextmanager

import pytest

from levelcert import level


@contextmanager
def _wall_bound(seconds):
    """Fail, instead of hanging, when the block runs past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def wall_bound():
    """`with wall_bound(s):` fails the test after s seconds of wall time."""
    return _wall_bound


@pytest.fixture
def built_certificates(monkeypatch):
    """The list of certificates built while the test runs, in order."""
    built = []

    def recording(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)
        return __init__

    for cls in (level.UpperCertificate, level.LowerCertificate,
                level.LevelCertificate):
        monkeypatch.setattr(cls, "__init__", recording(cls.__init__))
    return built
