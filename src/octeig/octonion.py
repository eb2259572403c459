"""Real octonion arithmetic over a fixed multiplication table.

Coordinates are 8 doubles, real part first, then the imaginary units
e1..e7.  The table follows the cyclic convention e_i e_{i+1} = e_{i+3}
(indices mod 7 in 1..7), which closes the seven quaternionic triples

    (1,2,4) (2,3,5) (3,4,6) (4,5,7) (5,6,1) (6,7,2) (7,1,3)

Any valid table would satisfy the identities implemented here; frozen
test values assume this one.

`mul`, `conj`, `inner`, `associator`, `assoc3form` and `left_mul_matrix`
also take finite coordinate arrays of shape (..., 8), one octonion per
stacked row, and then return arrays; an Octonion is the unstacked case.
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
    return np.vecmat(q, _contract(p))


def _contract(c: np.ndarray) -> np.ndarray:
    """The table contracted with each coordinate row of c (..., 8), as (..., 8, 8).

    The stack is flattened first: matmul of an N-d stack makes one BLAS call per trailing
    2-D block, of a 2-D one a single call.  Each table entry is 0 or +-1, so each output is
    one input coordinate, or a zero, whatever the blocking."""
    return (c.reshape(-1, 8) @ _TABLE_2D).reshape(c.shape[:-1] + (8, 8))


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each coordinate row of x (..., 8)."""
    return np.sqrt(np.vecdot(x, x))


class _Immutable:
    """Base of value types whose constructors set their slots with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which takes the slots in order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Octonion(_Immutable):
    """A real octonion, immutable after construction.  The arithmetic operators raise
    OverflowError where a result coordinate leaves the float range."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        c = np.array(coords, dtype=float)
        if c.shape != (8,):
            raise ValueError(f"octonion needs 8 coordinates, got shape {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError(_finite_fault(c.tolist(), True))
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @classmethod
    def _of(cls, c: np.ndarray) -> "Octonion":
        """Wrap a float array of shape (8,) that nothing writes to again: one the caller
        just allocated, or a row of an array cached for one matrix.  It becomes read-only."""
        q = object.__new__(cls)
        c.flags.writeable = False
        object.__setattr__(q, "coords", c)
        return q

    @classmethod
    def from_real(cls, x: float) -> "Octonion":
        c = np.zeros(8)
        c[0] = _finite(x, "x")
        return cls._of(c)

    @classmethod
    def unit(cls, i: int) -> "Octonion":
        """Basis unit e_i for an integer i in 0..7, not a bool; unit(0) is the real identity."""
        if isinstance(i, bool) or not isinstance(i, numbers.Integral) or not 0 <= i <= 7:
            raise ValueError(f"unit index must be an integer in 0..7, got {i!r}")
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
        """conj(q) / |q|^2 as 2^-e conj(p) / |p|^2, p = q / 2^e (`_scaled_rows`), |p|^2 in range."""
        if not self.coords.any():
            raise ZeroDivisionError("zero octonion has no inverse")
        (p,), (e,) = _scaled_rows(self.coords[None])
        with np.errstate(over="ignore"):
            inv = np.ldexp(p * _CONJ / (p @ p), -e)
        if not np.isfinite(inv).all():   # |q| below 1 / DBL_MAX, a subnormal
            raise OverflowError("octonion inverse is out of the float range")
        return Octonion._of(inv)

    def __add__(self, other: "Octonion") -> "Octonion":
        return _in_range(self.coords + other.coords)

    def __sub__(self, other: "Octonion") -> "Octonion":
        return _in_range(self.coords - other.coords)

    def __neg__(self) -> "Octonion":
        return Octonion._of(-self.coords)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return _in_range(_product(self.coords, other.coords))
        if isinstance(other, numbers.Real):
            return _in_range(self.coords * _finite(other, "factor"))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Real):
            return _in_range(self.coords * _finite(other, "factor"))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Real):
            if _finite(other, "divisor") == 0.0:
                raise ZeroDivisionError("octonion division by zero")
            return _in_range(self.coords / float(other))
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
        return cls._of(_json_floats([("", data, True)]))


def _in_range(c: np.ndarray) -> Octonion:
    """The Octonion of the fresh result c (8,) of arithmetic on finite operands, or
    OverflowError where a coordinate left the float range (inf, or nan from inf - inf)."""
    if not all(map(math.isfinite, c.tolist())):
        raise OverflowError("octonion arithmetic is out of the float range")
    return Octonion._of(c)


def _scaled_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of v (n, ...) over 2^e, exact, with its largest |entry| in [1/2, 1) (a zero
    row as it is), and e (n,): a homogeneous test or map reads the same on either."""
    e = np.frexp(np.maximum.reduce(np.abs(v.reshape(len(v), -1)), -1))[1]
    return np.ldexp(v, -e.reshape((-1,) + (1,) * (v.ndim - 1))), e


def _shown(value, limit: int = 200) -> str:
    """repr(value) for an error message, cut to `limit` characters with an ellipsis."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _finite_fault(value, octonion: bool) -> str:
    """The parse path's words for a number, or an octonion's coordinates, that is not finite."""
    return (f"octonion coordinates must be finite, got {_shown(value)}" if octonion
            else f"must be a finite number, got {_shown(value)}")


def _finite(x, label: str) -> float:
    """float(x), or ValueError in the parse path's words, led by label, where it is not finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{label}: {_finite_fault(x, False)}")
    return x


def _json_floats(fields) -> np.ndarray:
    """The numbers of `fields`, (label, value, octonion) triples, each value a number or an
    octonion's 8 coordinates, as one float array.  Each field in turn is checked for its type,
    then its range: float() of each item, then math.isfinite.  A ValueError led by the label
    names the first field at fault."""
    flat = []
    for label, value, octonion in fields:
        items, fault = value if octonion else [value], None
        if octonion and not (isinstance(value, (list, tuple)) and len(value) == 8):
            fault = f"octonion JSON must be an array of 8 numbers, got {_shown(value)}"
        else:
            for i, x in enumerate(items):   # not a number: bool, string, null, list, dict
                if not (type(x) is float or isinstance(x, numbers.Real) and type(x) is not bool):
                    fault = f"must be a number, got {_shown(x)}"
                    fault = f"coordinate {i} {fault}" if octonion else fault
                    break
        if not fault:
            try:
                items = [float(x) for x in items]
                fault = None if all(map(math.isfinite, items)) else _finite_fault(value, octonion)
            except OverflowError as exc:   # an int beyond the float range
                fault = str(exc)
        if fault:
            raise ValueError(f"{label}: {fault}" if label else fault)
        flat += items
    return np.array(flat)


def _on_arrays(fn):
    """Let fn, written for coordinate arrays (..., 8), take Octonions too.

    Octonion arguments go in as their coordinates; an (8,) result comes
    back as an Octonion and a scalar one as a float.  Arrays must be finite, and the
    arguments must be all Octonions or all arrays.
    """
    @functools.wraps(fn)
    def wrapped(*args):
        octs = sum(isinstance(a, Octonion) for a in args)
        if 0 < octs < len(args):
            raise ValueError(f"{fn.__name__} takes Octonions or coordinate arrays, not a mix")
        if not octs:
            return fn(*map(_finite_coords, args))
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
    """Associative 3-form: Re(a x b x c) = Re(a(bbar c) - c(bbar a))/2, which bbar = 2 Re(b) - b
    and Re(ac) = Re(ca) make (Re(c(ba)) - Re(a(bc)))/2, with Re(pq) = <pbar, q>."""
    return 0.5 * (np.vecdot(c * _CONJ, _product(b, a)) - np.vecdot(a * _CONJ, _product(b, c)))


def left_mul_matrix(q) -> np.ndarray:
    """8x8 real matrix L with L @ coords(x) = coords(q*x) for every x.

    q may also be a finite coordinate array of shape (..., 8), giving shape (..., 8, 8).
    """
    return _left_mul(q.coords if isinstance(q, Octonion) else _finite_coords(q))


def _left_mul(c: np.ndarray) -> np.ndarray:
    """`left_mul_matrix` of a float coordinate array (..., 8), unchecked, for the solve path."""
    return _contract(c).swapaxes(-1, -2)


def _finite_coords(q) -> np.ndarray:
    """q as a float array (..., 8); ValueError in the parse path's words for another shape, or
    where a coordinate is not finite."""
    c = np.asarray(q, dtype=float)
    if c.shape[-1:] != (8,):
        raise ValueError(f"octonion needs 8 coordinates, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError(_finite_fault(c.tolist(), True))
    return c
