"""Elementary symmetric functions of principal curvatures and their cone.

All routines act along the last axis of the input, so a field of
curvature vectors with shape (..., n) is handled in one vectorized call.
Degree k is runtime data; the recurrences below are stable for n up to
the mid-teens, unlike naive subset enumeration.
"""

from __future__ import annotations

import numpy as np


def sigma(lam, k: int):
    """k-th elementary symmetric polynomial of the entries along the last axis.

    Uses the incremental product recurrence e_j <- e_j + lam_i * e_{j-1},
    which evaluates all of e_0..e_k in O(n*k) flops.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"degree k={k} outside 1..{n}")
    return _sigma_prefix(lam, k)[..., k]


def sigma_all(lam, k: int):
    """All of sigma_1..sigma_k stacked along a new last axis."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"degree k={k} outside 1..{n}")
    return _sigma_prefix(lam, k)[..., 1:]


def _sigma_prefix(lam, k: int):
    e = np.zeros(lam.shape[:-1] + (k + 1,), dtype=float)
    e[..., 0] = 1.0
    for i in range(lam.shape[-1]):
        li = lam[..., i]
        for j in range(min(i + 1, k), 0, -1):
            e[..., j] += li * e[..., j - 1]
    return e


def sigma_partial(lam, k: int):
    """Gradient of sigma_k: entry i is sigma_{k-1} of lam with entry i removed."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"degree k={k} outside 1..{n}")
    out = np.empty_like(lam)
    for i in range(n):
        reduced = np.delete(lam, i, axis=-1)
        if k == 1:
            out[..., i] = 1.0
        else:
            out[..., i] = sigma(reduced, k - 1)
    return out


def cone_margin(lam, k: int):
    """min over j = 1..k of sigma_j; positive exactly inside the open cone."""
    return sigma_all(lam, k).min(axis=-1)


def in_gamma_cone(lam, k: int):
    """True where sigma_j > 0 for every j = 1..k.

    This is the standard finitely checkable characterization of the
    connected positivity component containing (1, ..., 1); the boundary
    (some sigma_j = 0) counts as outside.
    """
    return cone_margin(lam, k) > 0.0

