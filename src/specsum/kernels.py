"""Hot numeric kernels: subsample-averaged values and gradients.

Every solver iteration funnels through these functions (the line
search evaluates the value kernel once per trial step).  They are
vectorized numpy; ``BACKEND`` names that implementation in trace
headers.  Every call is deterministic.

A kernel called with ``idx`` an ascending run lo, lo+1, ..., hi inside
0..N-1 (every S=1 draw, every full-index call and any draw that
happens to be consecutive) reads those rows in place, through a slice;
any other ``idx`` (a permutation, a draw with duplicates or gaps)
gathers a copy of its rows first.  Both paths sum the same rows in the
same order, so they give the same bits.

``logistic_report`` is the full-index value and gradient of one trace
row: it computes the margins once and hands them to the same loss and
gradient formulas as ``logistic_value`` and ``logistic_gradient``, so
its results carry their bits.
"""

import numpy as np

BACKEND = "numpy"


def _rows(idx, N):
    """``slice(lo, hi + 1)`` when ``idx`` is the run lo..hi inside 0..N-1,
    so indexing reads the rows in place; ``idx`` itself otherwise."""
    if idx.size:
        lo, hi = int(idx[0]), int(idx[-1])
        if (0 <= lo and hi < N and hi - lo == idx.size - 1
                and (idx.size == 1 or bool(np.all(idx[1:] > idx[:-1])))):
            return slice(lo, hi + 1)
    return idx


def quad_value(A, b, idx, x):
    """Mean of 0.5*(x-b_i)' A_i (x-b_i) over the indices in ``idx``."""
    r = _rows(idx, b.shape[0])
    dx = x[None, :] - b[r]
    return 0.5 * float(np.einsum("ij,ijk,ik->", dx, A[r], dx)) / idx.size


def quad_gradient(A, b, idx, x):
    """Mean of A_i (x-b_i) over the indices in ``idx``."""
    r = _rows(idx, b.shape[0])
    dx = x[None, :] - b[r]
    return np.einsum("ijk,ik->j", A[r], dx) / idx.size


def _logistic_loss(z, lam, x):
    """Mean of log(1 + exp(z_i)) plus the regularizer."""
    return float(np.mean(np.logaddexp(0.0, z))) + 0.5 * lam * float(x @ x)


def _logistic_grad(z, F, y, lam, x):
    """Mean loss gradient over the rows of margins ``z`` plus lam*x."""
    # stable sigmoid(z); exp(-|z|) never overflows
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    sig = np.where(z >= 0, 1.0 / d, e / d)
    return ((-y * sig) @ F) / z.size + lam * x


def logistic_value(feats, labels, lam, idx, x):
    """Mean regularized logistic loss over the indices in ``idx``."""
    r = _rows(idx, labels.size)
    return _logistic_loss(-labels[r] * (feats[r] @ x), lam, x)


def logistic_gradient(feats, labels, lam, idx, x):
    """Mean regularized logistic loss gradient over ``idx``."""
    r = _rows(idx, labels.size)
    F, y = feats[r], labels[r]
    return _logistic_grad(-y * (F @ x), F, y, lam, x)


def logistic_report(feats, labels, lam, x):
    """Full value and gradient, from one pass over the data in place."""
    z = -labels * (feats @ x)
    return _logistic_loss(z, lam, x), _logistic_grad(z, feats, labels, lam, x)
