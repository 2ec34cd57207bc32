import os
import sys

import numpy as np

# allow running the suite from a bare checkout, without installation
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))

# property tests draw the same examples on every run and keep no database,
# so the suite stays deterministic and bounded in time; without the test
# extra installed, the modules that use hypothesis are skipped
try:
    from hypothesis import settings
except ImportError:
    pass
else:
    settings.register_profile("specsum", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("specsum")


def make_logistic(n, N, seed, lam=1e-4):
    """Small synthetic logistic problem with labels from a planted model."""
    from specsum.problems import LogisticProblem

    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((N, n))
    w = rng.standard_normal(n)
    labels = np.where(feats @ w + 0.3 * rng.standard_normal(N) > 0, 1.0, -1.0)
    return LogisticProblem(feats, labels, lam, label=f"synthetic-logistic-{seed}")
