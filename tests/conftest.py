import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make reference.py importable

from spoofcm.audio_io import Waveform

SR = 16000


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count util.parallel_map sees; afterwards, assert that no child is left."""
    yield lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls of this process, one entry each."""
    real_fork, calls = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
    return calls


def harmonic_speechlike(duration=1.0, f0=200.0, sr=SR, seed=0, noise=0.01):
    """Harmonic tone with a formant-shaped envelope and a broadband noise
    floor; stands in for voiced speech in channel tests."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * sr)) / sr
    x = np.zeros_like(t)
    k = 1
    while f0 * k < 0.45 * sr:
        amp = np.exp(-(((f0 * k) - 700.0) / 900.0) ** 2) + 0.1
        x += amp * np.sin(2 * np.pi * f0 * k * t + 0.3 * k)
        k += 1
    x = x / np.max(np.abs(x))
    x = x + noise * rng.standard_normal(len(x))
    return Waveform(0.5 * x / np.max(np.abs(x)), sr)


@pytest.fixture
def speechlike():
    return harmonic_speechlike()


def with_dtype(params, dtype):
    """A copy of ``params`` with every tensor cast to ``dtype``. The checks
    whose tolerances need double precision (finite differences, the oracles
    in reference.py) widen ``init_model``'s float32 parameters with it."""
    from spoofcm.model import ModelParams

    return ModelParams(**{name: getattr(params, name).astype(dtype) for name in params.FIELDS})


def flat(params):
    """The trainable parameters as one vector, in ``TRAINABLE`` order."""
    return np.concatenate([getattr(params, n).ravel() for n in params.TRAINABLE])


def load_flat(params, vec):
    """Write a vector laid out as ``flat`` returns it back into ``params``."""
    pos = 0
    for name in params.TRAINABLE:
        arr = getattr(params, name)
        arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size


def gradcheck(members, labels, loss_cfg, params, step=1e-5, n_probe=None, probe_seed=0):
    """Central-difference check of forward_backward's gradients.

    Returns (max_rel, max_abs): relative error over components where the
    finite difference is well-conditioned (|fd| > 1e-4), absolute error
    over the rest (where FD roundoff noise dominates any true signal).
    """
    from spoofcm.model import forward_backward

    _, grads, _ = forward_backward(members, labels, params, loss_cfg)
    flat_grad = np.concatenate([grads[n].ravel() for n in params.TRAINABLE])
    theta = flat(params)
    if n_probe is None:
        idxs = range(len(theta))
    else:
        idxs = np.random.default_rng(probe_seed).choice(len(theta), size=n_probe, replace=False)
    max_rel = 0.0
    max_abs = 0.0
    for i in idxs:
        v = theta.copy()
        v[i] += step
        load_flat(params, v)
        lp = forward_backward(members, labels, params, loss_cfg)[0]
        v[i] -= 2 * step
        load_flat(params, v)
        lm = forward_backward(members, labels, params, loss_cfg)[0]
        fd = (lp - lm) / (2 * step)
        err = abs(fd - flat_grad[i])
        if abs(fd) > 1e-4:
            max_rel = max(max_rel, err / abs(fd))
        else:
            max_abs = max(max_abs, err)
    load_flat(params, theta)
    return max_rel, max_abs
