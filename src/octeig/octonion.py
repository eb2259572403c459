"""Real octonion arithmetic over a fixed multiplication table.

Coordinates are 8 doubles, real part first, then the imaginary units
e1..e7.  The table follows the cyclic convention e_i e_{i+1} = e_{i+3}
(indices mod 7 in 1..7), which closes the seven quaternionic triples

    (1,2,4) (2,3,5) (3,4,6) (4,5,7) (5,6,1) (6,7,2) (7,1,3)

Any valid table would satisfy the identities implemented here; frozen
test values assume this one.

`mul`, `conj`, `inner`, `associator`, `assoc3form` and `left_mul_matrix`
also take coordinate arrays of shape (..., 8), one octonion per stacked
row, and then return arrays; an Octonion is the unstacked case.
"""

import functools
import math
import numbers

import numpy as np

__all__ = [
    "Octonion",
    "mul",
    "conj",
    "inner",
    "associator",
    "assoc3form",
    "left_mul_matrix",
]

_TRIPLES = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3))


def _build_table() -> np.ndarray:
    """Structure tensor t with (pq)_k = sum_ij t[i,j,k] p_i q_j."""
    t = np.zeros((8, 8, 8))
    t[0, 0, 0] = 1.0
    for i in range(1, 8):
        t[0, i, i] = 1.0
        t[i, 0, i] = 1.0
        t[i, i, 0] = -1.0
    for line in _TRIPLES:
        for x, y, z in (line, line[1:] + line[:1], line[2:] + line[:2]):
            t[x, y, z] = 1.0
            t[y, x, z] = -1.0
    return t


_TABLE = _build_table()
_TABLE.flags.writeable = False
# flattened view used by the hot multiply path
_TABLE_2D = np.ascontiguousarray(_TABLE.reshape(8, 64))
_TABLE_2D.flags.writeable = False
# coordinates of 1 and the sign pattern of conjugation
_ONE = np.eye(8)[0]
_CONJ = np.array([1.0] + [-1.0] * 7)
_ONE.flags.writeable = _CONJ.flags.writeable = False


def _product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coordinates of p*q for coordinate arrays (..., 8), broadcast along the stack."""
    return np.vecmat(q, (p @ _TABLE_2D).reshape(*p.shape[:-1], 8, 8))


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each coordinate row of x (..., 8)."""
    return np.sqrt(np.vecdot(x, x))


class Octonion:
    """A real octonion, immutable after construction."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.array(coords, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"octonion needs 8 coordinates, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @classmethod
    def _of(cls, c: np.ndarray) -> "Octonion":
        """Wrap a float array of shape (8,) that the caller just allocated
        and holds no other reference to; the array becomes read-only."""
        q = object.__new__(cls)
        c.flags.writeable = False
        object.__setattr__(q, "coords", c)
        return q

    @classmethod
    def from_real(cls, x: float) -> "Octonion":
        c = np.zeros(8)
        c[0] = x
        return cls._of(c)

    @classmethod
    def unit(cls, i: int) -> "Octonion":
        """Basis unit e_i; unit(0) is the real identity."""
        c = np.zeros(8)
        c[i] = 1.0
        return cls._of(c)

    @classmethod
    def zero(cls) -> "Octonion":
        return cls._of(np.zeros(8))

    @property
    def real(self) -> float:
        return float(self.coords[0])

    def imag(self) -> "Octonion":
        c = self.coords.copy()
        c[0] = 0.0
        return Octonion._of(c)

    def conj(self) -> "Octonion":
        return Octonion._of(self.coords * _CONJ)

    def norm2(self) -> float:
        return float(self.coords @ self.coords)

    def norm(self) -> float:
        # what np.linalg.norm computes for a real vector, sqrt(x . x)
        return math.sqrt(self.coords @ self.coords)

    def inverse(self) -> "Octonion":
        n2 = self.norm2()
        if n2 == 0.0:
            raise ZeroDivisionError("zero octonion has no inverse")
        return Octonion._of(self.conj().coords / n2)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion._of(self.coords + other.coords)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion._of(self.coords - other.coords)

    def __neg__(self) -> "Octonion":
        return Octonion._of(-self.coords)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return Octonion._of(_product(self.coords, other.coords))
        if isinstance(other, numbers.Real):
            return Octonion._of(self.coords * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return Octonion._of(self.coords * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            return Octonion._of(self.coords / float(other))
        return NotImplemented

    def __repr__(self):
        terms = []
        for i, x in enumerate(self.coords):
            if x != 0.0:
                terms.append(f"{x:g}" if i == 0 else f"{x:g}*e{i}")
        return "Octonion<" + (" + ".join(terms) if terms else "0") + ">"

    def to_json(self) -> list:
        return self.coords.tolist()

    @classmethod
    def from_json(cls, data) -> "Octonion":
        if not isinstance(data, (list, tuple)) or len(data) != 8:
            raise ValueError(f"octonion JSON must be an array of 8 numbers, got {data!r}")
        q = cls(data)
        if not np.isfinite(q.coords).all():
            raise ValueError(f"octonion coordinates must be finite, got {data!r}")
        return q


def _on_arrays(fn):
    """Let fn, written for coordinate arrays (..., 8), take Octonions too.

    Octonion arguments go in as their coordinates; an (8,) result comes
    back as an Octonion and a scalar one as a float.
    """
    @functools.wraps(fn)
    def wrapped(*args):
        if not isinstance(args[0], Octonion):
            return fn(*(np.asarray(a, dtype=float) for a in args))
        out = fn(*(a.coords for a in args))
        return Octonion._of(out) if out.ndim else float(out)

    return wrapped


@_on_arrays
def mul(p, q):
    """Octonion product p*q."""
    return _product(p, q)


@_on_arrays
def conj(p):
    """Conjugate: real part kept, imaginary coordinates negated."""
    return p * _CONJ


@_on_arrays
def inner(p, q):
    """Euclidean inner product of coordinates; equals Re(p qbar) = (p qbar + q pbar)/2."""
    return np.vecdot(p, q)


@_on_arrays
def associator(a, b, c):
    """(ab)c - a(bc), totally antisymmetric and purely imaginary."""
    return _product(_product(a, b), c) - _product(a, _product(b, c))


@_on_arrays
def assoc3form(a, b, c):
    """Associative 3-form: Re(a x b x c) = Re(a(bbar c) - c(bbar a))/2."""
    bc = b * _CONJ
    return 0.5 * (_product(a, _product(bc, c)) - _product(c, _product(bc, a)))[..., 0]


def left_mul_matrix(q) -> np.ndarray:
    """8x8 real matrix L with L @ coords(x) = coords(q*x) for every x.

    q may also be a coordinate array of shape (..., 8), giving shape (..., 8, 8).
    """
    c = q.coords if isinstance(q, Octonion) else np.asarray(q, dtype=float)
    return (c @ _TABLE_2D).reshape(c.shape[:-1] + (8, 8)).swapaxes(-1, -2)
