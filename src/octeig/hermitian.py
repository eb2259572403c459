"""3x3 octonionic Hermitian matrices, octonionic 3-vectors, and scalar invariants.

A matrix is stored as three real diagonal entries (d, e, f) and three
octonions (a, b, c) laid out as

    [ d     a     conj(b) ]
    [ conj(a)  e     c    ]
    [ b     conj(c)  f    ]

so hermiticity holds by construction.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .octonion import (
    _CONJ,
    Octonion,
    _norm,
    _product,
    assoc3form,
    associator,
    conj,
    left_mul_matrix,
)

__all__ = [
    "OctVector3",
    "Hermitian3",
    "MatrixClass",
    "trace",
    "sigma",
    "det",
    "phi",
    "alpha",
    "classify",
    "mat_vec",
    "outer",
    "outer_entries",
    "real_form",
    "REAL",
    "COMPLEX",
    "QUATERNIONIC",
    "OCTONIONIC",
]

REAL = "real"
COMPLEX = "complex"
QUATERNIONIC = "quaternionic"
OCTONIONIC = "octonionic"

# indexed by the stacked class test's codes
_TAGS = (REAL, COMPLEX, QUATERNIONIC, OCTONIONIC)
_CLASS_TOL = 1e-9


class OctVector3:
    """Column vector in O^3, immutable."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) != 3 or not all(isinstance(v, Octonion) for v in comps):
            raise ValueError("OctVector3 needs exactly 3 octonion components")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_coords(cls, coords) -> "OctVector3":
        c = np.asarray(coords, dtype=float).reshape(24)
        return cls((Octonion(c[0:8]), Octonion(c[8:16]), Octonion(c[16:24])))

    def to_coords(self) -> np.ndarray:
        return np.concatenate([v.coords for v in self.components])

    def __add__(self, other: "OctVector3") -> "OctVector3":
        return OctVector3(tuple(u + w for u, w in zip(self.components, other.components)))

    def __sub__(self, other: "OctVector3") -> "OctVector3":
        return OctVector3(tuple(u - w for u, w in zip(self.components, other.components)))

    def __neg__(self) -> "OctVector3":
        return OctVector3(tuple(-u for u in self.components))

    def scale(self, t: float) -> "OctVector3":
        return OctVector3(tuple(u * t for u in self.components))

    def right_mul(self, q: Octonion) -> "OctVector3":
        """Componentwise right multiplication by a single octonion."""
        return OctVector3(tuple(u * q for u in self.components))

    def dagger_dot(self, other: "OctVector3") -> Octonion:
        """self^dagger other = sum conj(v_i) w_i, an octonion."""
        acc = Octonion.zero()
        for u, w in zip(self.components, other.components):
            acc = acc + u.conj() * w
        return acc

    def norm2(self) -> float:
        return float(sum(v.norm2() for v in self.components))

    def norm(self) -> float:
        return float(np.sqrt(self.norm2()))

    def normalized(self) -> "OctVector3":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return self.scale(1.0 / n)

    def outer(self) -> "Hermitian3":
        """Rank-one Hermitian matrix self self^dagger."""
        v1, v2, v3 = self.components
        return Hermitian3(
            d=v1.norm2(),
            e=v2.norm2(),
            f=v3.norm2(),
            a=v1 * v2.conj(),
            b=v3 * v1.conj(),
            c=v2 * v3.conj(),
        )

    def __repr__(self):
        return f"OctVector3{self.components!r}"

    def to_json(self) -> list:
        return [v.to_json() for v in self.components]

    @classmethod
    def from_json(cls, data) -> "OctVector3":
        if not isinstance(data, (list, tuple)) or len(data) != 3:
            raise ValueError("vector JSON must be a 3x8 array of numbers")
        return cls(_parse(f"component {i}", Octonion.from_json, row)
                   for i, row in enumerate(data))


@dataclass(frozen=True, eq=False)
class Hermitian3:
    d: float
    e: float
    f: float
    a: Octonion
    b: Octonion
    c: Octonion

    @classmethod
    def diagonal(cls, d: float, e: float, f: float) -> "Hermitian3":
        z = Octonion.zero()
        return cls(float(d), float(e), float(f), z, z, z)

    @classmethod
    def identity(cls) -> "Hermitian3":
        return cls.diagonal(1.0, 1.0, 1.0)

    def entries(self):
        """Reconstructed 3x3 matrix of octonions (diagonal wrapped as real octonions)."""
        d, e, f = (Octonion.from_real(x) for x in (self.d, self.e, self.f))
        return (
            (d, self.a, self.b.conj()),
            (self.a.conj(), e, self.c),
            (self.b, self.c.conj(), f),
        )

    def __add__(self, other: "Hermitian3") -> "Hermitian3":
        return Hermitian3(
            self.d + other.d, self.e + other.e, self.f + other.f,
            self.a + other.a, self.b + other.b, self.c + other.c,
        )

    def __sub__(self, other: "Hermitian3") -> "Hermitian3":
        return Hermitian3(
            self.d - other.d, self.e - other.e, self.f - other.f,
            self.a - other.a, self.b - other.b, self.c - other.c,
        )

    def scale(self, t: float) -> "Hermitian3":
        t = float(t)
        return Hermitian3(t * self.d, t * self.e, t * self.f,
                          self.a * t, self.b * t, self.c * t)

    def frobenius(self) -> float:
        return float(np.sqrt(
            self.d ** 2 + self.e ** 2 + self.f ** 2
            + 2.0 * (self.a.norm2() + self.b.norm2() + self.c.norm2())
        ))

    def to_json(self) -> dict:
        return {
            "d": float(self.d), "e": float(self.e), "f": float(self.f),
            "a": self.a.to_json(), "b": self.b.to_json(), "c": self.c.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "Hermitian3":
        if not isinstance(data, dict):
            raise ValueError("matrix JSON must be an object with fields d, e, f, a, b, c")
        missing = [key for key in ("d", "e", "f", "a", "b", "c") if key not in data]
        if missing:
            raise ValueError(f"matrix JSON is missing field {missing[0]!r}")
        reals = (_parse(f"field {k!r}", _finite_real, data[k]) for k in ("d", "e", "f"))
        octs = (_parse(f"field {k!r}", Octonion.from_json, data[k]) for k in ("a", "b", "c"))
        return cls(*reals, *octs)

    def __repr__(self):
        return (f"Hermitian3(d={self.d:g}, e={self.e:g}, f={self.f:g}, "
                f"a={self.a!r}, b={self.b!r}, c={self.c!r})")


def _finite_real(x) -> float:
    t = float(x)
    if not np.isfinite(t):
        raise ValueError(f"must be a finite number, got {x!r}")
    return t


def _parse(label: str, parse, value):
    """parse(value), with a ValueError naming where in the JSON the value sat."""
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{label}: {exc}") from exc


def _per_matrix(fn):
    """Compute fn(A, *args) once per matrix A and keep it in A's instance dict.

    Sound because a Hermitian3 is frozen and its octonion coordinates are
    read-only, so the value can never go stale; it goes away with A.  The
    key is fn's name and args.  Arrays are cached read-only, since every
    later caller gets the same one.  An exception is not cached: it is
    raised again on every call.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def cached(A, *args):
        key = (name, args)
        memo = A.__dict__
        if key not in memo:
            value = fn(A, *args)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            memo[key] = value
        return memo[key]

    return cached


class MatrixClass(NamedTuple):
    tag: str
    dim_t: int


@_per_matrix
def _arrays(A: Hermitian3) -> tuple[np.ndarray, np.ndarray]:
    """A's diagonal (3,) and off-diagonal entries a, b, c (3, 8), read-only.

    The stacked functions below take diagonals (..., 3) and off-diagonals
    (..., 3, 8); one matrix is their unstacked case.
    """
    dia, off = np.array([A.d, A.e, A.f]), np.array([A.a.coords, A.b.coords, A.c.coords])
    dia.flags.writeable = off.flags.writeable = False
    return dia, off


def _vnorm(y: np.ndarray) -> np.ndarray:
    """Norm of each stacked vector y (..., 3, 8)."""
    return np.sqrt(np.vecdot(y, y).sum(-1))


def trace(A: Hermitian3) -> float:
    return A.d + A.e + A.f


def _sigma(dia: np.ndarray, off: np.ndarray) -> np.ndarray:
    """`sigma` of stacked matrices, diagonals (..., 3) and off-diagonals (..., 3, 8)."""
    # tr(A^2) as the sum of Re(A_ij A_ji) over the 9 entries in row order; no
    # hand-derived closed form.  aa = Re(a abar), aa_ = Re(abar a), and so on.
    sq = dia * dia
    d, e, f = sq[..., 0], sq[..., 1], sq[..., 2]
    same, swapped = _product(off, off * _CONJ)[..., 0], _product(off * _CONJ, off)[..., 0]
    aa, bb, cc = same[..., 0], same[..., 1], same[..., 2]
    aa_, bb_, cc_ = swapped[..., 0], swapped[..., 1], swapped[..., 2]
    t = dia.sum(-1)
    return 0.5 * (t * t - (d + aa + bb_ + aa_ + e + cc + bb + cc_ + f))


def _det(dia: np.ndarray, off: np.ndarray) -> np.ndarray:
    """`det` of stacked matrices."""
    d, e, f = dia[..., 0], dia[..., 1], dia[..., 2]
    a, b, c = off[..., 0, :], off[..., 1, :], off[..., 2, :]
    n2 = np.vecdot(off, off)
    return (d * e * f - d * n2[..., 2] - e * n2[..., 1] - f * n2[..., 0]
            + 2.0 * _product(_product(c, b), a)[..., 0])


def _phi(off: np.ndarray) -> np.ndarray:
    """`phi` of stacked off-diagonals (..., 3, 8)."""
    return assoc3form(off[..., 0, :], off[..., 1, :], off[..., 2, :])


def _alpha(off: np.ndarray) -> np.ndarray:
    """`alpha` of stacked off-diagonals, (..., 8)."""
    return associator(off[..., 0, :], off[..., 1, :], off[..., 2, :])


@_per_matrix
def sigma(A: Hermitian3) -> float:
    """Second characteristic invariant ((tr A)^2 - tr(A^2)) / 2."""
    return float(_sigma(*_arrays(A)))


@_per_matrix
def det(A: Hermitian3) -> float:
    """Determinant def - d|c|^2 - e|b|^2 - f|a|^2 + 2 Re((cb)a).

    Validated against the diagonality of the characteristic operator; a
    wrong sign on the Re((cb)a) term breaks that identity immediately.
    """
    return float(_det(*_arrays(A)))


@_per_matrix
def phi(A: Hermitian3) -> float:
    """Associative 3-form of the off-diagonal entries."""
    return float(_phi(_arrays(A)[1]))


@_per_matrix
def alpha(A: Hermitian3) -> Octonion:
    """Associator [a, b, c] of the off-diagonal entries."""
    return Octonion._of(_alpha(_arrays(A)[1]))


def _associative(off: np.ndarray, al: np.ndarray) -> np.ndarray:
    """Where |alpha| <= tol |a||b||c|: both sides are homogeneous of degree 3,
    so the test does not depend on the matrix's scale."""
    n = _norm(off)
    return _norm(al) <= _CLASS_TOL * n[..., 0] * n[..., 1] * n[..., 2]


def _rank(rows: np.ndarray, tol: float = _CLASS_TOL) -> np.ndarray:
    """Rank of each stacked row set (..., k, 8), relative to its largest singular value."""
    s = np.linalg.svd(rows, compute_uv=False)
    return (s > tol * s[..., :1]).sum(-1)


def _classes(off: np.ndarray, al: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index into _TAGS and dim T for off-diagonals (..., 3, 8) with associators al (..., 8)."""
    # one svd call: the rows (1, a, b, c), and the imaginary parts padded with a zero row
    rows = np.zeros(off.shape[:-2] + (2, 4, 8))
    rows[..., 0, 0, 0] = 1.0
    rows[..., 0, 1:, :] = off
    rows[..., 1, 1:, 1:] = off[..., 1:]
    ranks = _rank(rows)
    dim_t, imag_rank = ranks[..., 0], ranks[..., 1]
    return np.where(_associative(off, al), np.minimum(imag_rank, 2), 3), dim_t


@_per_matrix
def classify(A: Hermitian3) -> MatrixClass:
    """Classify by the smallest subalgebra containing the off-diagonal entries.

    The octonionic test is |alpha| against tol |a||b||c|; matrices routed
    below it land on the quaternionic/complex/real paths, which are exact
    there and a limit elsewhere.
    """
    code, dim_t = _classes(_arrays(A)[1], alpha(A).coords)
    return MatrixClass(_TAGS[code], int(dim_t))


def mat_vec(A: Hermitian3, x: OctVector3) -> OctVector3:
    """Left action A x with each term a single binary octonion product."""
    x1, x2, x3 = x.components
    return OctVector3((
        x1 * A.d + A.a * x2 + A.b.conj() * x3,
        A.a.conj() * x1 + x2 * A.e + A.c * x3,
        A.b * x1 + A.c.conj() * x2 + x3 * A.f,
    ))


def outer(v: OctVector3) -> Hermitian3:
    """Rank-one Hermitian matrix v v^dagger."""
    return v.outer()


def outer_entries(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal (n, 3) and a, b, c (n, 3, 8) of v v^dagger for each column v of V (24, n)."""
    X = V.T.reshape(-1, 3, 8)
    # v1 conj(v2), v3 conj(v1), v2 conj(v3) from one contraction with the octonion table
    off = np.einsum("nskj,nsj->nsk", left_mul_matrix(X[:, [0, 2, 1]]), conj(X[:, [1, 0, 2]]))
    return np.einsum("nsi,nsi->ns", X, X), off


def _block_form(dia: np.ndarray, off: np.ndarray) -> np.ndarray:
    la, lb, lc = (left_mul_matrix(off[..., k, :]) for k in range(3))
    lat, lbt, lct = (L.swapaxes(-1, -2) for L in (la, lb, lc))
    d, e, f = (dia[..., k, None, None] * np.eye(8) for k in range(3))
    return np.block([[d, la, lbt], [lat, e, lc], [lb, lct, f]])


# the real form is linear in the 27 numbers (d, e, f, a, b, c), and each of
# its entries is +-1 times one of them, so one matmul builds it exactly
_REAL_FORM = _block_form(np.eye(27)[:, :3], np.eye(27)[:, 3:].reshape(27, 3, 8)).reshape(27, 576)


def real_form(dia: np.ndarray, off: np.ndarray) -> np.ndarray:
    """24x24 real matrices of x -> A x for diagonals (..., 3) and a, b, c (..., 3, 8)."""
    flat = np.concatenate([dia, off.reshape(off.shape[:-2] + (24,))], axis=-1)
    return (flat @ _REAL_FORM).reshape(flat.shape[:-1] + (24, 24))


def hermitian_combination(pairs) -> Hermitian3:
    """Real linear combination sum_k t_k (v_k v_k^dagger)."""
    acc = Hermitian3.diagonal(0.0, 0.0, 0.0)
    for t, v in pairs:
        acc = acc + v.outer().scale(t)
    return acc
