"""Element-by-element finite-difference gradient checking for small tests.

``grad_check`` perturbs one scalar parameter entry at a time and re-runs the
whole function, so it suits the few-hundred-parameter expressions of the
unit tests; ``convmotion.gradcheck`` is the batched full-model check.
"""

from typing import Callable

import numpy as np

from convmotion.autodiff import GradTape, Tensor, backward
from convmotion.gradcheck import (
    GradCheckEntry,
    GradCheckReport,
    GradCheckSetupError,
)


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def grad_check(f: Callable[[], Tensor], params, h: float = 1e-5,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` takes no arguments, reads the given parameters, and must be
    deterministic (any dropout mask must be re-drawn identically on every
    call); nondeterminism is detected by double evaluation and raises
    ``GradCheckSetupError``. ``params`` is a ``{name: Tensor}`` mapping or an
    iterable of ``(name, Tensor)`` pairs.
    """
    if isinstance(params, dict):
        named = list(params.items())
    else:
        named = list(params)

    v1 = f().item()
    v2 = f().item()
    if v1 != v2:
        raise GradCheckSetupError(
            f"function under test is not deterministic: {v1!r} != {v2!r} "
            "(is a dropout mask being resampled between evaluations?)"
        )

    with GradTape() as tape:
        loss = f()
    grads = backward(loss, tape)

    entries = []
    for name, p in named:
        analytic = grads.get(p)
        if analytic is None:
            analytic = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        worst = (0.0, (0,), 0.0, 0.0)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            f_plus = f().item()
            flat[idx] = orig - h
            f_minus = f().item()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic.reshape(-1)[idx])
            err = relative_error(a, numeric)
            if err >= worst[0]:
                worst = (err, np.unravel_index(idx, p.data.shape), a, numeric)
        entries.append(GradCheckEntry(name, p.data.shape, worst[0], worst[1],
                                      worst[2], worst[3]))
    return GradCheckReport(entries, tol)
