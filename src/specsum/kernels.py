"""Hot numeric kernels: subsample-averaged values and gradients.

Every solver iteration funnels through these functions (the line
search evaluates the value kernel once per trial step).  They are
vectorized numpy; ``BACKEND`` names that implementation in trace
headers.  Every call is deterministic.

A kernel called with ``idx`` exactly 0..N-1 in order (``spectral-full``
and the ``svrg-bb`` snapshots make such calls) reads the data arrays in
place; any other ``idx`` (a subsample, a permutation, a draw with
duplicates) gathers a copy of its rows first.  Both paths sum the same
rows in the same order, so they give the same bits.

``logistic_report`` is the full-index value and gradient of one trace
row: it computes the margins once and hands them to the same loss and
gradient formulas as ``logistic_value`` and ``logistic_gradient``, so
its results carry their bits.
"""

import numpy as np

BACKEND = "numpy"


def _in_order(idx):
    """True when ``idx`` is exactly 0..idx.size-1 in order."""
    return (idx.size > 0 and idx[0] == 0 and idx[-1] == idx.size - 1
            and bool(np.all(idx[1:] > idx[:-1])))


def quad_value(A, b, idx, x):
    """Mean of 0.5*(x-b_i)' A_i (x-b_i) over the indices in ``idx``."""
    if idx.size == b.shape[0] and _in_order(idx):
        Ai, bi = A, b
    else:
        Ai, bi = A[idx], b[idx]
    dx = x[None, :] - bi
    return 0.5 * float(np.einsum("ij,ijk,ik->", dx, Ai, dx)) / idx.size


def quad_gradient(A, b, idx, x):
    """Mean of A_i (x-b_i) over the indices in ``idx``."""
    if idx.size == b.shape[0] and _in_order(idx):
        Ai, bi = A, b
    else:
        Ai, bi = A[idx], b[idx]
    dx = x[None, :] - bi
    return np.einsum("ijk,ik->j", Ai, dx) / idx.size


def _logistic_rows(feats, labels, idx):
    if idx.size == labels.size and _in_order(idx):
        return feats, labels
    return feats[idx], labels[idx]


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
    F, y = _logistic_rows(feats, labels, idx)
    return _logistic_loss(-y * (F @ x), lam, x)


def logistic_gradient(feats, labels, lam, idx, x):
    """Mean regularized logistic loss gradient over ``idx``."""
    F, y = _logistic_rows(feats, labels, idx)
    return _logistic_grad(-y * (F @ x), F, y, lam, x)


def logistic_report(feats, labels, lam, x):
    """Full value and gradient, from one pass over the data in place."""
    z = -labels * (feats @ x)
    return _logistic_loss(z, lam, x), _logistic_grad(z, feats, labels, lam, x)
