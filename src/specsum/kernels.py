"""Hot numeric kernels: subsample-averaged values and gradients.

Every solver iteration funnels through these functions (the line
search evaluates the value kernel once per trial step).  They are
vectorized numpy; ``BACKEND`` names that implementation in trace
headers.  Every call is deterministic.

A kernel called with ``idx`` an ascending run lo, lo+1, ..., hi inside
0..N-1 (every full-index call and any draw that happens to be
consecutive) reads those rows in place, through a slice; any other
``idx`` (a permutation, a draw with duplicates or gaps) gathers a copy
of its rows first.  Both paths sum the same rows in the same order, so
they give the same bits.

A quadratic kernel takes the products of its batch from ``_products``:
dx = x-b_i and A_i dx for each index i, by one matrix-vector product
for one index (every S=1 draw) and by one ``matmul`` over the batch's
rows for several.  The value is half the dot of the two over the batch
size, with the bits of the several-index form over a one-row stack for
one index; the gradient is the product for one index and the sum of
the products over the batch, divided by its size, for several.

The point rule: given a ``point``, its caller's dict for one (batch,
iterate), a quadratic call of any batch size keeps dx and the products
there or takes them from it, so a value and a gradient at one point
compute the products once, with the bits of the two calls without a
point.  A one-index gradient is the point's own array (see Ownership
in the ``solvers`` docstring).  The logistic kernels take no point.

The three logistic kernels share one chain, and take the negated
labels -y, which ``LogisticProblem`` builds once, so the label sign is
folded into it.  ``_margins`` turns the products F @ x into the margins
z = -y * (F @ x) with one multiplication in place and takes
e = exp(-|z|) in one array of its own.  A value takes each loss
log(1 + exp(z)) as max(z, 0) + log1p(e), the formula numpy's
``logaddexp(0, z)`` evaluates, on numpy's vectorized ``maximum`` and
``log1p``, and their mean as their sum over their count, which is
``np.mean``'s quotient.  A gradient takes the stable sigmoid(z) as
exp(min(z, 0)) / (1 + e), without a branch, writes it over z and e,
and multiplies it by -y.  A product with a negated +-1 is the negated
product, so the fold moves no bit but the sign of a NaN.

``logistic_report`` gives the full-index value and gradient of a stack
of c trace rows, X of shape (c, n).  It reads the data one block F_b of
max(1, ``_REPORT_BLOCK`` // c) rows at a time: the block's margins come
from Z_b = X @ F_b', the chain above runs on all c rows of Z_b at once,
and each row's loss sum is added into f and the products of its slopes
with F_b into G.  The first block's sums are taken, not added to zeros,
and f and G are divided by N once, after the last block.  So a report
whose data fits one block runs the estimators' products and sums: a
one-row report of up to ``_REPORT_BLOCK`` data rows carries the bits of
``logistic_value`` and ``logistic_gradient`` on the full index, and any
other report agrees with them to rounding, since the matrix-matrix
products and the sums over blocks add in other orders.  A block holds
its margins, their e, their losses and one temporary: at most four
arrays of ``_REPORT_BLOCK`` floats, whatever N.  F_b stays in cache
from the block's first product to its second, so a stack reads the
features from memory once.  A full-index gradient holds two arrays of
N floats, its margins and their e.
"""

import numpy as np

BACKEND = "numpy"

# Margins held at a time by logistic_report, c per data row of a block.
_REPORT_BLOCK = 1 << 15


def _rows(idx, N):
    """``slice(lo, hi + 1)`` when ``idx`` is the run lo..hi inside 0..N-1,
    so indexing reads the rows in place; ``idx`` itself otherwise.  A
    one-index quadratic call reads its row as one 2-D matrix instead,
    and a quadratic call whose point holds the products reads no row
    (the point rule, ``_products``)."""
    if idx.size:
        lo, hi = int(idx[0]), int(idx[-1])
        if (0 <= lo and hi < N and hi - lo == idx.size - 1
                and (idx.size == 1 or bool(np.all(idx[1:] > idx[:-1])))):
            return slice(lo, hi + 1)
    return idx


def _products(A, b, idx, x, point):
    """dx = x - b_i and Adx = A_i dx for the indices in ``idx``: two
    n-vectors for one index, two (S, n) stacks for several.  With a
    ``point``, the dict of (idx, x), they are taken from it when it
    holds them and kept in it otherwise."""
    if point is not None and "Adx" in point:
        return point["dx"], point["Adx"]
    if idx.size == 1:
        i = idx[0]
        dx = x - b[i]
        Adx = A[i] @ dx
    else:
        r = _rows(idx, b.shape[0])
        dx = x - b[r]
        Adx = np.matmul(A[r], dx[:, :, None])[:, :, 0]
    if point is not None:
        point["dx"], point["Adx"] = dx, Adx
    return dx, Adx


def quad_value(A, b, idx, x, point=None):
    """Mean of 0.5*(x-b_i)' A_i (x-b_i) over the indices in ``idx``; a
    value of -inf is returned as inf."""
    dx, Adx = _products(A, b, idx, x, point)
    v = 0.5 * float(np.vdot(dx, Adx)) / idx.size
    # each term is >= 0 on SPD data; past overflow vdot can keep a first
    # -inf product, which is still an overflow, not a decrease
    return np.inf if v == -np.inf else v


def quad_gradient(A, b, idx, x, point=None):
    """Mean of A_i (x-b_i) over the indices in ``idx``."""
    Adx = _products(A, b, idx, x, point)[1]
    return Adx if idx.size == 1 else Adx.sum(axis=0) / idx.size


def _margins(z, neg_y):
    """Margins z = -y * (F @ x), built in place on the products ``z`` =
    F @ x (or on each row of a stack's X @ F') from the negated labels
    ``neg_y``, and e = exp(-|z|) in one array of its own; ``e`` never
    overflows."""
    z *= neg_y
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
    ``e`` = exp(-|z|); leaves ``z`` and ``e`` unchanged.  The mean is
    ``np.mean``'s own quotient, without its Python wrapper."""
    loss = _log1p_exp(z, e)
    return float(np.add.reduce(loss) / loss.size) + 0.5 * lam * float(x @ x)


def _loss_slopes(z, e, neg_y):
    """-y * sigmoid(z), the loss derivative of each row, given ``e`` =
    exp(-|z|) and the negated labels ``neg_y``, written over ``z``;
    overwrites ``e``.  The stable sigmoid(z) is exp(min(z, 0)) / (1 + e):
    for z < 0, min(z, 0) is -|z| exactly, and for z >= 0, exp(0) is
    exactly 1."""
    sig = np.minimum(z, 0.0, out=z)
    np.exp(sig, out=sig)
    e += 1.0
    sig /= e
    sig *= neg_y
    return sig


def logistic_value(feats, neg_labels, lam, idx, x):
    """Mean regularized logistic loss over the indices in ``idx``, given
    the negated labels."""
    r = _rows(idx, neg_labels.size)
    return _logistic_value(*_margins(feats[r] @ x, neg_labels[r]), lam, x)


def logistic_gradient(feats, neg_labels, lam, idx, x):
    """Mean regularized logistic loss gradient over ``idx``, given the
    negated labels."""
    r = _rows(idx, neg_labels.size)
    F, neg_y = feats[r], neg_labels[r]
    return (_loss_slopes(*_margins(F @ x, neg_y), neg_y) @ F) / neg_y.size + lam * x


def logistic_report(feats, neg_labels, lam, X):
    """Full values, shape (c,), and gradients, shape (c, n), of the c
    iterates stacked in ``X``, given the negated labels: one block of
    data rows at a time, whose c margins per row fill at most
    ``_REPORT_BLOCK``."""
    N = neg_labels.size
    step = max(1, _REPORT_BLOCK // max(1, len(X)))
    for lo in range(0, N, step):
        F, neg_y = feats[lo:lo + step], neg_labels[lo:lo + step]
        z, e = _margins(X @ F.T, neg_y)
        sums = np.add.reduce(_log1p_exp(z, e), axis=1)
        g = _loss_slopes(z, e, neg_y) @ F
        if lo == 0:  # the first block's sums are taken, not added to zeros
            f, G = sums, g
        else:
            f += sums
            G += g
    f /= N
    for i, x in enumerate(X):
        f[i] += 0.5 * lam * float(x @ x)
    G /= N
    G += lam * X
    return f, G
