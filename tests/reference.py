"""A 40-digit reference for forward error: how far octeig's eigenpairs are from the true ones.

The 24x24 real form R of a matrix comes from `perfbench/oracle.py`'s `realify`, which shares
no code with octeig, and `mpmath.eigsy` solves it at 40 digits.  A reference eigenspace is
the span of the reference eigenvectors whose eigenvalues agree to 30 digits of ||A||_2.
Against it:
  - octeig's eigenvalues, each standing for 24 / (number of pairs) reference eigenvalues,
    are matched to the reference ones in sorted order;
  - an eigenpair's space is the union of the reference eigenspaces matched to the
    eigenvalues equal to its own, so a cluster's space is the whole cluster's span;
  - the distance of v / |v| from that space is bounded by Davis and Kahan's
    |Av - lam v| / (|v| gap), the gap the distance from lam to the reference eigenvalues
    outside the space.  |Av - lam v| is what octeig reports, its family's normwise eigen
    residual times ||A||_F, so the bound holds only if the reported residual is honest.
"""

import importlib.util
from pathlib import Path

import mpmath

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

DPS = 40
SAME_DIGITS = 30


class Reference:
    """The 40-digit eigenvalues (24, ascending), their eigenvectors (the columns of Q), the
    eigenspaces as lists of column indices, ||A||_2 and ||A||_F of a matrix in octeig's JSON
    layout."""

    def __init__(self, m: dict):
        with mpmath.workdps(DPS):
            self.R = mpmath.matrix(oracle.realify(m).tolist())   # exact: each entry a double
            E, Q = mpmath.eigsy(self.R)
            order = sorted(range(24), key=lambda i: E[i])
            self.eigenvalues = [E[i] for i in order]
            self.Q = mpmath.matrix([[Q[r, c] for c in order] for r in range(24)])
            self.norm = max(abs(e) for e in self.eigenvalues)
            # R holds each entry of A 8 times over: ||R||_F^2 = 8 ||A||_F^2
            self.frobenius = mpmath.mnorm(self.R, "f") / mpmath.sqrt(8)
            self.spaces = [[0]]
            for i in range(1, 24):
                if self.eigenvalues[i] - self.eigenvalues[i - 1] > \
                        mpmath.mpf(10) ** -SAME_DIGITS * self.norm:
                    self.spaces.append([])
                self.spaces[-1].append(i)

    def forward_errors(self, pairs: list) -> tuple[float, list]:
        """For every eigenpair octeig returned, (lam, v as 24 doubles, its family's reported
        eigen residual): the largest eigenvalue error over ||A||_2, and per pair the distance
        of v / |v| from its reference space with twice its Davis-Kahan bound (inf where the
        space is all of R^24)."""
        repeated = sorted(lam for lam, _, _ in pairs for _ in range(24 // len(pairs)))
        with mpmath.workdps(DPS):
            lam_error = max(abs(mpmath.mpf(lam) - e)
                            for lam, e in zip(repeated, self.eigenvalues)) / self.norm
            vectors = []
            for lam, v, residual in pairs:
                own = {i for i, other in enumerate(repeated) if other == lam}
                span = [i for s in self.spaces if own.intersection(s) for i in s]
                Q = mpmath.matrix([[self.Q[r, c] for c in span] for r in range(24)])
                x = mpmath.matrix(v)
                size = mpmath.norm(x)
                u = x / size
                distance = mpmath.norm(u - Q * (Q.T * u))
                gap = min((abs(e - lam) for i, e in enumerate(self.eigenvalues) if i not in span),
                          default=None)
                bound = 2 * residual * self.frobenius / (size * gap) if gap else mpmath.inf
                vectors.append((float(distance), float(bound)))
            return float(lam_error), vectors
