"""Numerical oracles for the gradient tests: a central finite-difference
gradient, two relative-error measures to compare it with an exact one, and
an in-place parameter write for the functions it differentiates."""

import numpy as np


def finite_diff_grad(f, params: list[np.ndarray], step: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradient estimate of a scalar function of a
    parameter list. The test oracle; deliberately simple and slow."""
    grads = []
    work = [p.copy() for p in params]
    for i, p in enumerate(work):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            f_plus = f(work)
            flat[j] = orig - step
            f_minus = f(work)
            flat[j] = orig
            gflat[j] = (f_plus - f_minus) / (2.0 * step)
        grads.append(g)
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max per-entry relative error with an absolute floor."""
    num = np.abs(a - b)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(num / den))


def normed_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Relative error in the Euclidean norm; the right metric for comparing
    whole gradient blocks where single entries sit at roundoff level."""
    den = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b) / den)


def assign(arrays: list[np.ndarray], values: list[np.ndarray]) -> None:
    """Overwrite each array in place with its value, so the network or policy
    that holds the arrays computes with the values."""
    for a, v in zip(arrays, values, strict=True):
        a[...] = v
