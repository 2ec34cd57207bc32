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

``quad_value`` takes the products A_i (x-b_i) through ``matmul`` and
sums them against x-b_i in one ``vdot``; ``quad_gradient`` keeps its
two-operand ``einsum``, which ``matmul`` does not speed up.

The three logistic kernels share one chain.  ``_margins`` turns the
products F @ x into the margins z = -y * (F @ x) in place and takes
e = exp(-|z|) in one array of its own.  A value takes each loss
log(1 + exp(z)) as max(z, 0) + log1p(e), the formula numpy's
``logaddexp(0, z)`` evaluates, on numpy's vectorized ``maximum`` and
``log1p``.  A gradient takes the stable sigmoid(z) as
exp(min(z, 0)) / (1 + e), without a branch, and writes it over z and e.

``logistic_report`` gives the full-index value and gradient of a stack
of c trace rows, X of shape (c, n).  It reads the features twice per
stack, in the two matrix products Z = X @ F' and C @ F, and runs the
chain above on one row of Z at a time, so each row's temporaries stay
in cache.  For a one-row stack both products are the matrix-vector
products of the estimators, so the report carries the bits of
``logistic_value`` and ``logistic_gradient`` on the full index; rows of
a larger stack agree with their one-row reports to rounding.  A stack
holds its c arrays of N margins and at most three arrays of N floats
more; a full-index gradient holds two.
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
    Adx = np.matmul(A[r], dx[:, :, None])[:, :, 0]
    return 0.5 * float(np.vdot(dx, Adx)) / idx.size


def quad_gradient(A, b, idx, x):
    """Mean of A_i (x-b_i) over the indices in ``idx``."""
    r = _rows(idx, b.shape[0])
    dx = x[None, :] - b[r]
    return np.einsum("ijk,ik->j", A[r], dx) / idx.size


def _margins(z, y):
    """Margins z = -y * (F @ x), built in place on the products ``z`` =
    F @ x, and e = exp(-|z|) in one array of its own; ``e`` never
    overflows."""
    z *= y
    np.negative(z, out=z)
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return z, e


def _log1p_exp(z, e):
    """log(1 + exp(z)) per element, given ``e`` = exp(-|z|): the formula
    numpy's ``logaddexp(0, z)`` evaluates, max(z, 0) + log1p(e)."""
    loss = np.log1p(e)
    loss += np.maximum(z, 0.0)
    return loss


def _logistic_value(z, e, lam, x):
    """Mean loss over the rows of margins ``z`` plus lam/2*||x||^2, given
    ``e`` = exp(-|z|); leaves ``z`` and ``e`` unchanged."""
    return float(np.mean(_log1p_exp(z, e))) + 0.5 * lam * float(x @ x)


def _loss_slopes(z, e, y):
    """-y * sigmoid(z), the loss derivative of each row, given ``e`` =
    exp(-|z|), written over ``z``; overwrites ``e``.  The stable
    sigmoid(z) is exp(min(z, 0)) / (1 + e): for z < 0, min(z, 0) is -|z|
    exactly, and for z >= 0, exp(0) is exactly 1."""
    sig = np.minimum(z, 0.0, out=z)
    np.exp(sig, out=sig)
    e += 1.0
    sig /= e
    sig *= y
    np.negative(sig, out=sig)
    return sig


def logistic_value(feats, labels, lam, idx, x):
    """Mean regularized logistic loss over the indices in ``idx``."""
    r = _rows(idx, labels.size)
    return _logistic_value(*_margins(feats[r] @ x, labels[r]), lam, x)


def logistic_gradient(feats, labels, lam, idx, x):
    """Mean regularized logistic loss gradient over ``idx``."""
    r = _rows(idx, labels.size)
    F, y = feats[r], labels[r]
    return (_loss_slopes(*_margins(F @ x, y), y) @ F) / y.size + lam * x


def logistic_report(feats, labels, lam, X):
    """Full values, shape (c,), and gradients, shape (c, n), of the c
    iterates stacked in ``X``, from two matrix products over the data."""
    Z = X @ feats.T
    f = np.empty(len(X))
    for i, z in enumerate(Z):
        z, e = _margins(z, labels)
        f[i] = _logistic_value(z, e, lam, X[i])
        _loss_slopes(z, e, labels)
    G = Z @ feats
    G /= labels.size
    G += lam * X
    return f, G
