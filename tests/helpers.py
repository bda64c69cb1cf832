"""Shared random-object generators for the test suite (always seeded by
callers), a call counter, a wall-clock budget and the '--flag=value' form
of a command line."""

import contextlib
import signal
import sys

import numpy as np

from seqeve import BlochDirection


def random_direction(rng: np.random.Generator) -> BlochDirection:
    cos_theta = rng.uniform(-1.0, 1.0)
    return BlochDirection(
        float(np.arccos(cos_theta)), float(rng.uniform(0.0, 2.0 * np.pi))
    )


def random_pure_amp(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_qubit_density(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure_qubit_density(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_psd2(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a @ a.conj().T


def random_hermitian2(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return 0.5 * (a + a.conj().T)


def random_hermitian4(rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (a + a.conj().T)


def count_calls(monkeypatch, owner, name):
    """Count calls of owner.<name> through every seqeve binding."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "seqeve" or mod_name.startswith("seqeve."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@contextlib.contextmanager
def wall_clock_budget(seconds):
    """Raise TimeoutError in the block once it has run ``seconds`` of wall
    time, so that a loop without end fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def attached(argv):
    """``argv`` with each '--flag value' pair written '--flag=value', a form
    that only argparse reads."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out
