"""Hot numeric kernels: subsample-averaged values and gradients.

Every solver iteration funnels through these four functions (the line
search evaluates the value kernel once per trial step), so they carry
numba ``@njit`` implementations with pure-numpy twins.  The active
backend is chosen once at import time from the ``SPECSUM_BACKEND``
environment variable: ``numba`` (default, falls back to numpy when
numba is not importable) or ``numpy``.

Both backends compute the same quantities; summation order differs, so
results may disagree in the last few ulps.  Within one backend every
call is deterministic.

A numpy kernel called with ``idx`` exactly 0..N-1 in order (reporting,
``spectral-full`` and the ``svrg-bb`` snapshots make such calls) reads
the data arrays in place; any other ``idx`` (a subsample, a permutation,
a draw with duplicates) gathers a copy of its rows first.  Both paths
sum the same rows in the same order, so they give the same bits.
"""

import math
import os

import numpy as np

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# numpy implementations


def _in_order(idx):
    """True when ``idx`` is exactly 0..idx.size-1 in order."""
    return (idx.size > 0 and idx[0] == 0 and idx[-1] == idx.size - 1
            and bool(np.all(idx[1:] > idx[:-1])))


def quad_value_numpy(A, b, idx, x):
    """Mean of 0.5*(x-b_i)' A_i (x-b_i) over the indices in ``idx``."""
    if idx.size == b.shape[0] and _in_order(idx):
        Ai, bi = A, b
    else:
        Ai, bi = A[idx], b[idx]
    dx = x[None, :] - bi
    return 0.5 * float(np.einsum("ij,ijk,ik->", dx, Ai, dx)) / idx.size


def quad_gradient_numpy(A, b, idx, x):
    """Mean of A_i (x-b_i) over the indices in ``idx``."""
    if idx.size == b.shape[0] and _in_order(idx):
        Ai, bi = A, b
    else:
        Ai, bi = A[idx], b[idx]
    dx = x[None, :] - bi
    return np.einsum("ijk,ik->j", Ai, dx) / idx.size


def logistic_value_numpy(feats, labels, lam, idx, x):
    """Mean regularized logistic loss over the indices in ``idx``."""
    if idx.size == labels.size and _in_order(idx):
        F, y = feats, labels
    else:
        F, y = feats[idx], labels[idx]
    z = -y * (F @ x)
    return float(np.mean(np.logaddexp(0.0, z))) + 0.5 * lam * float(x @ x)


def logistic_gradient_numpy(feats, labels, lam, idx, x):
    """Mean regularized logistic loss gradient over ``idx``."""
    if idx.size == labels.size and _in_order(idx):
        F, y = feats, labels
    else:
        F, y = feats[idx], labels[idx]
    z = -y * (F @ x)
    # stable sigmoid(z); exp(-|z|) never overflows
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    sig = np.where(z >= 0, 1.0 / d, e / d)
    return ((-y * sig) @ F) / idx.size + lam * x


# ---------------------------------------------------------------------------
# numba implementations

if _HAVE_NUMBA:

    @njit(cache=True)
    def quad_value_numba(A, b, idx, x):
        total = 0.0
        for t in range(idx.size):
            i = idx[t]
            dx = x - b[i]
            total += 0.5 * np.dot(dx, np.dot(A[i], dx))
        return total / idx.size

    @njit(cache=True)
    def quad_gradient_numba(A, b, idx, x):
        g = np.zeros(x.size)
        for t in range(idx.size):
            i = idx[t]
            g += np.dot(A[i], x - b[i])
        return g / idx.size

    @njit(cache=True)
    def logistic_value_numba(feats, labels, lam, idx, x):
        total = 0.0
        for t in range(idx.size):
            i = idx[t]
            z = -labels[i] * np.dot(feats[i], x)
            if z > 0.0:
                total += z + math.log1p(math.exp(-z))
            else:
                total += math.log1p(math.exp(z))
        return total / idx.size + 0.5 * lam * np.dot(x, x)

    @njit(cache=True)
    def logistic_gradient_numba(feats, labels, lam, idx, x):
        g = np.zeros(x.size)
        for t in range(idx.size):
            i = idx[t]
            z = -labels[i] * np.dot(feats[i], x)
            if z >= 0.0:
                sig = 1.0 / (1.0 + math.exp(-z))
            else:
                e = math.exp(z)
                sig = e / (1.0 + e)
            g += (-labels[i] * sig) * feats[i]
        return g / idx.size + lam * x


def _pick_backend():
    requested = os.environ.get("SPECSUM_BACKEND", "numba").lower()
    if requested not in ("numba", "numpy"):
        raise ValueError(f"SPECSUM_BACKEND must be 'numba' or 'numpy', got {requested!r}")
    if requested == "numba" and not _HAVE_NUMBA:
        return "numpy"
    return requested


BACKEND = _pick_backend()

if BACKEND == "numba":
    quad_value = quad_value_numba
    quad_gradient = quad_gradient_numba
    logistic_value = logistic_value_numba
    logistic_gradient = logistic_gradient_numba
else:
    quad_value = quad_value_numpy
    quad_gradient = quad_gradient_numpy
    logistic_value = logistic_value_numpy
    logistic_gradient = logistic_gradient_numpy
