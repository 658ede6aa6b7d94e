"""Output checks of the benchmark and the statistical bands they use.

Every check allows a family-wise false-alarm rate of at most FAMILY_ALPHA
per run, so that the many repeats of a workload stay quiet when the
program is right.  Checks that compare several quantities at once split
that rate between them (Bonferroni).
"""

from __future__ import annotations

import math

from scipy.special import bdtr, bdtrc, ndtri

FAMILY_ALPHA = 1e-4


def one_sided_z(alpha):
    return float(ndtri(1.0 - alpha))


def two_sided_z(alpha):
    return float(ndtri(1.0 - alpha / 2))


def binomial_two_sided_p(count, n, p):
    """Two-sided tail mass of `count` under Binomial(n, p), exact.

    Root edges of the sampler graph have p ~ 1e-3, where a normal z-band
    with a few expected counts would alarm far more often than its nominal
    rate; the exact tails keep the band honest there.
    """
    lower = float(bdtr(count, n, p))
    upper = 1.0 if count <= 0 else float(bdtrc(count - 1, n, p))
    return min(1.0, 2.0 * min(lower, upper))


def tv_noise(n, n_bins, alpha):
    """Bound on TV(empirical, true) over `n_bins` bins, held w.p. 1 - alpha.

    E||p_hat - p||_1 <= sqrt(n_bins / n) by Cauchy-Schwarz, and one sample
    moves the L1 norm by at most 2/n, so McDiarmid adds
    sqrt(2 ln(1/alpha) / n); TV is half the L1 norm.
    """
    return 0.5 * math.sqrt(n_bins / n) + math.sqrt(math.log(1 / alpha) / (2 * n))


class CheckLog:
    """Outcomes of the named checks of one workload run."""

    def __init__(self, names):
        self.results = {name: [] for name in names}

    def record(self, name, ok, detail=""):
        self.results[name].append((bool(ok), detail))

    def attempted(self):
        return sum(len(r) for r in self.results.values())

    def failed(self):
        return sum(not ok for r in self.results.values() for ok, _ in r)

    def summary(self):
        out = {}
        for name, rows in self.results.items():
            bad = [d for ok, d in rows if not ok]
            out[name] = {"evaluated": len(rows), "failed": len(bad),
                         "detail": bad[0] if bad else
                         (rows[-1][1] if rows else "never evaluated")}
        return out
