import numpy as np
import pytest

from qhesolve import qserve


@pytest.fixture(scope="session")
def server():
    """One shared execution server for every networked test."""
    with qserve.ExecutionServer() as srv:
        yield srv


@pytest.fixture
def request_log(monkeypatch):
    """The bytes of every request frame handled, in order, whether it came
    over TCP or through an in-process submit: both look up
    qserve.handle_request when they run."""
    frames: list[bytes] = []
    handle = qserve.handle_request

    def recording(payload_bytes: bytes) -> dict:
        frames.append(payload_bytes)
        return handle(payload_bytes)

    monkeypatch.setattr(qserve, "handle_request", recording)
    return frames


def random_symmetric_pd(rng: np.random.Generator,
                        max_condition: float = 10.0) -> np.ndarray:
    """Random symmetric positive-definite 2x2 with bounded condition number."""
    phi = rng.uniform(0.0, 2.0 * np.pi)
    lam1 = rng.uniform(0.5, 2.0)
    lam2 = lam1 / rng.uniform(1.0, max_condition)
    c, s = np.cos(phi), np.sin(phi)
    r = np.array([[c, -s], [s, c]])
    return r.T @ np.diag([lam1, lam2]) @ r


def random_unit_vector(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2)
    while np.linalg.norm(v) < 1e-6:
        v = rng.normal(size=2)
    return v / np.linalg.norm(v)
