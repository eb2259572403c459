"""3x3 octonionic Hermitian matrices, octonionic 3-vectors, and scalar invariants.

A matrix is stored as three real diagonal entries (d, e, f) and three
octonions (a, b, c) laid out as

    [ d     a     conj(b) ]
    [ conj(a)  e     c    ]
    [ b     conj(c)  f    ]

so hermiticity holds by construction.  The invariants and the class test are computed
once per matrix, as attributes of its stack of one (`Hermitian3._stack`, a
`spectral._Stack`), and the per-matrix functions here read them.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .octonion import (
    Octonion,
    _Immutable,
    _scaled,
    _finite,
    _finite_fault,
    _json_floats,
    _left_mul,
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


class OctVector3(_Immutable):
    """Column vector in O^3, immutable."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if len(comps) != 3 or not all(isinstance(v, Octonion) for v in comps):
            raise ValueError("OctVector3 needs exactly 3 octonion components")
        object.__setattr__(self, "components", comps)

    @classmethod
    def from_coords(cls, coords) -> "OctVector3":
        """The vector of 24 coordinates, copied once; each component is a read-only row.
        A NaN or infinite coordinate raises ValueError, worded as `from_json` words it."""
        c = np.array(coords, dtype=float).reshape(3, 8)
        if not np.isfinite(c).all():
            i = int(np.isfinite(c).all(-1).argmin())
            raise ValueError(f"component {i}: {_finite_fault(c[i].tolist(), True)}")
        return cls(tuple(map(Octonion._of, c)))

    def to_coords(self) -> np.ndarray:
        return np.concatenate([v.coords for v in self.components])

    def __add__(self, other: "OctVector3") -> "OctVector3":
        return OctVector3(tuple(u + w for u, w in zip(self.components, other.components)))

    def __sub__(self, other: "OctVector3") -> "OctVector3":
        return OctVector3(tuple(u - w for u, w in zip(self.components, other.components)))

    def __neg__(self) -> "OctVector3":
        return OctVector3(tuple(-u for u in self.components))

    def scale(self, t: float) -> "OctVector3":
        t = _finite(t, "t")
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
        """v / |v| as u / |u|, u = v / 2^e (`_scaled`): no square of u underflows or overflows."""
        u = OctVector3.from_coords(_scaled(self.to_coords(), "cannot normalize the zero vector")[0])
        return u.scale(1.0 / u.norm())

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
        return cls(tuple(map(Octonion._of, _vector_floats(data).reshape(3, 8))))


def _vector_floats(data) -> np.ndarray:
    """The 24 coordinates (24,) of a vector's JSON, each checked once, as `_json_floats` checks."""
    if not isinstance(data, (list, tuple)) or len(data) != 3:
        raise ValueError("vector JSON must be a 3x8 array of numbers")
    return _json_floats([(f"component {i}", row, True) for i, row in enumerate(data)])


def _matrix_floats(data) -> np.ndarray:
    """The 27 numbers (27,) of a matrix's JSON, d, e, f, a, b, c, each checked once."""
    if not isinstance(data, dict):
        raise ValueError("matrix JSON must be an object with fields d, e, f, a, b, c")
    missing = [key for key in ("d", "e", "f", "a", "b", "c") if key not in data]
    if missing:
        raise ValueError(f"matrix JSON is missing field {missing[0]!r}")
    return _json_floats([(f"field {k!r}", data[k], k in "abc") for k in "defabc"])


class _lazy:
    """`functools.cached_property` without the lock that it takes on every first read before
    Python 3.12: func's value, stored in the instance's __dict__, where later reads find it.
    On a `spectral._Stack.rows` view, whose `_view` is (stack, rows): the stack's, sliced."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        if "_view" not in obj.__dict__:
            return obj.__dict__.setdefault(self.name, self.func(obj))
        value, rows = getattr(obj._view[0], self.name), obj._view[1]
        return obj.__dict__.setdefault(self.name, tuple(x[rows] for x in value)
                                       if isinstance(value, tuple) else value[rows])


@dataclass(frozen=True, eq=False)
class Hermitian3:
    d: float
    e: float
    f: float
    a: Octonion
    b: Octonion
    c: Octonion

    def __post_init__(self):
        """An a, b or c that is not an Octonion, or a NaN or infinite entry, raises ValueError,
        the latter worded as `from_json` words it."""
        for k in "abc":
            if not isinstance(getattr(self, k), Octonion):
                raise ValueError(f"field {k!r}: Hermitian3 needs an Octonion, "
                                 f"got {type(getattr(self, k)).__name__}")
        entries = (self.d, self.e, self.f, self.a.coords, self.b.coords, self.c.coords)
        if all(map(math.isfinite, entries[:3])) and np.isfinite(np.concatenate(entries[3:])).all():
            return
        for k, x in zip("defabc", entries):
            if not np.isfinite(x).all():
                fault = _finite_fault(x.tolist() if k in "abc" else x, k in "abc")
                raise ValueError(f"field {k!r}: {fault}")

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
        t = _finite(t, "t")
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
        c = _matrix_floats(data)
        return cls(*c[:3].tolist(), *map(Octonion._of, c[3:].reshape(3, 8)))

    @_lazy
    def _stack(self):
        """This matrix as a stack of one of `spectral._Stack`, built on first use: every
        per-matrix helper reads its row 0.  It holds arrays only, no reference back."""
        from .spectral import _Stack   # spectral imports this module
        dia = np.array([[self.d, self.e, self.f]])
        return _Stack(dia, np.array([[self.a.coords, self.b.coords, self.c.coords]]))

    def __getstate__(self) -> dict:
        """The entries without `_stack`: a copy or pickle solves again, as a fresh matrix does."""
        return {k: v for k, v in self.__dict__.items() if k != "_stack"}

    def __repr__(self):
        return (f"Hermitian3(d={self.d:g}, e={self.e:g}, f={self.f:g}, "
                f"a={self.a!r}, b={self.b!r}, c={self.c!r})")


class MatrixClass(NamedTuple):
    tag: str
    dim_t: int


def _vnorm(y: np.ndarray) -> np.ndarray:
    """Norm of each stacked vector y (..., 3, 8)."""
    return np.sqrt(np.add.reduce(np.vecdot(y, y), -1))


def trace(A: Hermitian3) -> float:
    return A.d + A.e + A.f


def sigma(A: Hermitian3) -> float:
    """Second characteristic invariant ((tr A)^2 - tr(A^2)) / 2, as `_Stack.sigma` computes it."""
    return float(A._stack.sigma[0])


def det(A: Hermitian3) -> float:
    """Determinant def - d|c|^2 - e|b|^2 - f|a|^2 + 2 Re((cb)a), as `_Stack.det` computes it.

    Validated against the diagonality of the characteristic operator; a
    wrong sign on the Re((cb)a) term breaks that identity immediately.
    """
    return float(A._stack.det[0])


def phi(A: Hermitian3) -> float:
    """Associative 3-form of the off-diagonal entries, from `_Stack.alpha_phi`."""
    return float(A._stack.phi[0])


def alpha(A: Hermitian3) -> Octonion:
    """Associator [a, b, c] of the off-diagonal entries, from `_Stack.alpha_phi`."""
    return Octonion._of(A._stack.alpha[0])


def classify(A: Hermitian3) -> MatrixClass:
    """Classify by the smallest subalgebra containing the off-diagonal entries; dim T, that of
    span{1, a, b, c}, comes from the same decision, `_Stack.classes`.

    The octonionic test, `_Stack.associative`, is |alpha| against ASSOCIATOR_TOL |a||b||c|;
    matrices routed below it land on the quaternionic/complex/real paths, which are exact
    there and a limit elsewhere.  There the imaginary rank picks the class, and dim T = 1 + rank.
    """
    code, dim_t = (int(x[0]) for x in A._stack.classes)
    return MatrixClass(_TAGS[code], dim_t)


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


def _block_form(dia: np.ndarray, off: np.ndarray) -> np.ndarray:
    la, lb, lc = (_left_mul(off[..., k, :]) for k in range(3))
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
