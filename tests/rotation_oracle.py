"""The per-triple rotation conversions that ``mocap`` used before they took
batch axes, kept as an oracle, plus the Euler recomposition that only tests
need.

``expmap_to_rotmat`` and ``rotmat_to_euler`` handle one exponential map and
one matrix with scalar ``math`` calls; ``euler_to_rotmat`` inverts
``rotmat_to_euler``'s convention, ``R == rot_x(-e1) @ rot_y(-e2) @
rot_z(-e3)``.
"""

import math

import numpy as np


def _skew(r):
    return np.array([
        [0.0, -r[2], r[1]],
        [r[2], 0.0, -r[0]],
        [-r[1], r[0], 0.0],
    ])


def expmap_to_rotmat(r):
    """Rodrigues formula; below theta=1e-8 the second-order series is used."""
    r = np.asarray(r, dtype=np.float64)
    theta = float(np.linalg.norm(r))
    K = _skew(r)
    if theta < 1e-8:
        return np.eye(3) + K + 0.5 * (K @ K)
    return (np.eye(3)
            + (math.sin(theta) / theta) * K
            + ((1.0 - math.cos(theta)) / (theta * theta)) * (K @ K))


def rotmat_to_euler(R):
    """One matrix to ``(e1, e2, e3)``; gimbal lock takes ``e3 = 0``."""
    R = np.asarray(R, dtype=np.float64)
    s = R[0, 2]
    if abs(s) >= 1.0 - 1e-12:
        if s < 0.0:  # R[0, 2] == -1
            return np.array([math.atan2(R[1, 0], R[1, 1]), math.pi / 2.0, 0.0])
        return np.array([math.atan2(-R[1, 0], R[1, 1]), -math.pi / 2.0, 0.0])
    e2 = -math.asin(s)
    c = math.cos(e2)
    e1 = math.atan2(R[1, 2] / c, R[2, 2] / c)
    e3 = math.atan2(R[0, 1] / c, R[0, 0] / c)
    return np.array([e1, e2, e3])


def _rot_x(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(a):
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_to_rotmat(e):
    """Recompose angles produced by ``rotmat_to_euler``."""
    e = np.asarray(e, dtype=np.float64)
    return _rot_x(-e[0]) @ _rot_y(-e[1]) @ _rot_z(-e[2])
