"""The group algebra: convolution, derivatives, norms, and ball truncations.

An :class:`AlgebraElement` is a finitely supported function from a group to
the complex numbers, multiplied by convolution and represented on l2 of the
group by left convolution operators.  Operator norms are estimated from
below by compressions to balls of growing radius, scanned through position
tables of f's support times the ball; the multiplication operator by word
length acts as a Dirac-type derivative and induces the Lipschitz seminorms
used throughout.  A :class:`Truncation` is the paper's P_lam A P_lam, one
object per (group, lam): the ball, its double ball and the map x y^-1
between them, with every array a truncation needs built once, on first
read: the index map, the inverse table, the word lengths and the overlap
counts, which make it the overlap kernel too, and its ``sums`` over the
map's positions.  The counts are the map's bincount once it is built and,
before that, run along the fibers of a central last coordinate where the
group declares one.  Every element is found through its ball's one lookup,
``Ball.positions``, and the element cap in force (``element_cap``) bounds
every ball a call enumerates, double balls included.

Coefficients may be ints, floats, complexes, or ``fractions.Fraction``
values.  Arithmetic preserves exact types, so identities that hold in
rational arithmetic can be checked for literal equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Optional

import numpy as np

from .cayley import _INT_TYPES, Ball, _position_finder, _rows, ball

__all__ = [
    "AlgebraElement",
    "delta",
    "unit",
    "convolve",
    "involution",
    "derivative",
    "l1_norm",
    "l2_norm",
    "spectral_norm",
    "OpnormResult",
    "opnorm",
    "lipnorm",
    "random_element",
    "Truncation",
    "fejer_kernel",
    "fejer_apply",
    "format_algebra_element",
    "parse_algebra_element",
]


class AlgebraElement:
    """Finitely supported coefficient function on a group.

    Zero coefficients are dropped on construction, so two elements are equal
    exactly when their coefficient dictionaries coincide.
    """

    __slots__ = ("group", "_coeffs")

    def __init__(self, group, coeffs: Mapping):
        clean = {}
        for g, v in coeffs.items():
            group.validate(g)
            if v != 0:
                clean[g] = v
        self.group = group
        self._coeffs = clean

    @property
    def support(self):
        return self._coeffs.keys()

    def items(self):
        return self._coeffs.items()

    def coeffs(self) -> dict:
        return dict(self._coeffs)

    def __getitem__(self, g):
        return self._coeffs.get(g, 0)

    def __len__(self) -> int:
        return len(self._coeffs)

    def _new(self, coeffs: Mapping) -> "AlgebraElement":
        """An element of the same kind and space as self with these coefficients."""
        return AlgebraElement(self.group, coeffs)

    def _mismatch(self, other: "AlgebraElement") -> Optional[str]:
        """Why other cannot be added to or equal self, or None when it can."""
        if type(other) is not type(self):
            return f"cannot combine {type(self).__name__} with {type(other).__name__}"
        if other.group != self.group:
            return f"group mismatch: {self.group.name} vs {other.group.name}"
        return None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        problem = self._mismatch(other)
        if problem:
            raise ValueError(problem)
        out = dict(self._coeffs)
        for g, v in other._coeffs.items():
            out[g] = out.get(g, 0) + v
        return self._new(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1) * self

    def __mul__(self, scalar) -> "AlgebraElement":
        return self._new({g: v * scalar for g, v in self._coeffs.items()})

    def __rmul__(self, scalar) -> "AlgebraElement":
        return self._new({g: scalar * v for g, v in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self._mismatch(other) is None and self._coeffs == other._coeffs

    __hash__ = None

    def __repr__(self) -> str:
        return f"AlgebraElement({self.group.name}, {len(self._coeffs)} terms)"


def _check_same_group(f: AlgebraElement, g: AlgebraElement) -> None:
    if f.group != g.group:
        raise ValueError(f"group mismatch: {f.group.name} vs {g.group.name}")


def delta(group, g, coeff=1) -> AlgebraElement:
    """The basis element supported at g."""
    return AlgebraElement(group, {g: coeff})


def unit(group) -> AlgebraElement:
    """The convolution unit, supported at the identity."""
    return delta(group, group.identity())


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Convolution product: (f*g)(z) sums f(x)g(y) over xy = z."""
    _check_same_group(f, g)
    grp = f.group
    out: dict = {}
    for x, fx in f.items():
        for y, gy in g.items():
            z = grp.multiply(x, y)
            out[z] = out.get(z, 0) + fx * gy
    return AlgebraElement(grp, out)


def involution(f: AlgebraElement) -> AlgebraElement:
    """Adjoint element: conjugate coefficients pulled back through inversion."""
    grp = f.group
    return AlgebraElement(grp, {grp.inverse(g): v.conjugate() for g, v in f.items()})


def _check_order(s: int) -> None:
    if s < 1:
        raise ValueError(f"derivative order must be a positive integer, got {s}")


def _check_radius(lam: int) -> None:
    """Reject a radius that is not a positive integer, naming it as given."""
    if not isinstance(lam, _INT_TYPES):
        raise ValueError(f"truncation radius must be an integer, got {lam!r}")
    if lam < 1:
        raise ValueError(f"truncation radius must be at least 1, got {lam}")


def derivative(f: AlgebraElement, s: int = 1) -> AlgebraElement:
    """Pointwise multiplication by the s-th power of word length.

    The identity coefficient is annihilated (its length is zero), so scalars
    are exactly the kernel of every induced seminorm.
    """
    _check_order(s)
    return AlgebraElement(f.group, {g: v * n**s for g, v in f.items() if (n := f.group.length(g))})


def l1_norm(f: AlgebraElement) -> float:
    return float(sum(abs(complex(v)) for v in f._coeffs.values()))


def l2_norm(f: AlgebraElement) -> float:
    return math.sqrt(sum(abs(complex(v)) ** 2 for v in f._coeffs.values()))


# Bytes of group products computed at once while an index map or position table is built.
_CHUNK_BYTES = 1 << 22


def _product_positions(left: np.ndarray, right: np.ndarray, target: Ball) -> np.ndarray:
    """int32 positions in target of the products left[i] * right[j], -1 outside, in chunks."""
    pos = np.empty((len(left), len(right)), dtype=np.int32)
    rows = max(1, _CHUNK_BYTES // (right.itemsize * right.size))
    for start in range(0, len(left), rows):
        prod = target.group.multiply_array(left[start : start + rows, None, :], right[None])
        pos[start : start + rows] = target.positions(prod)
    return pos


@lru_cache(maxsize=None)
def _start_vector(n: int) -> np.ndarray:
    """Fixed generic complex start vector of the opt-in ascent's inverse iteration and Lanczos."""
    rng = np.random.default_rng(0x5EC7)
    start = rng.standard_normal((n, 2)) @ np.array([1.0, 1.0j])
    start.flags.writeable = False
    return start


def _lanczos_norm(apply, adjoint, n: int) -> float:
    """Top singular value of M on C^n by Lanczos on M^H M with full reorthogonalization.

    ``apply`` and ``adjoint`` compute M v and M^H u.  From ``_start_vector``, it stops once the
    top Ritz pair (theta, y) has residual beta |s_k| <= 1e-14 theta or the Krylov space runs out
    (beta <= 1e-14 max diag T <= 1e-14 theta); ||M y|| / ||y|| is attained.
    """
    Q = np.empty((min(n, 64), n), dtype=complex)
    T = np.zeros((len(Q), len(Q)))
    Q[0] = _start_vector(n) / np.linalg.norm(_start_vector(n))
    for k in range(n):
        w = adjoint(apply(Q[k]))
        for _ in range(2):  # classical Gram-Schmidt against every Lanczos vector, twice
            h = np.conj(Q[: k + 1] @ np.conj(w))
            w -= Q[: k + 1].T @ h
            T[k, k] += h[k].real
        beta = np.linalg.norm(w)
        exhausted = beta <= 1e-14 * T.diagonal().max() or k == n - 1
        if exhausted or (k + 1) % _RITZ_CHECK_EVERY == 0:
            theta, S = np.linalg.eigh(T[: k + 1, : k + 1])
            if exhausted or beta * abs(S[-1, -1]) <= 1e-14 * theta[-1]:
                y = Q[: k + 1].T @ S[:, -1]
                return float(np.linalg.norm(apply(y)) / np.linalg.norm(y))
        if k + 1 == len(Q):
            Q = np.concatenate([Q, np.empty_like(Q)])
            T = np.pad(T, (0, len(T)))
        Q[k + 1] = w / beta
        T[k, k + 1] = T[k + 1, k] = beta


# Larger matrices are normed by Lanczos: dense was faster at n = 145 and Lanczos at n = 181.
_LANCZOS_THRESHOLD = 200
# Steps between Lanczos's Ritz residual checks: a check is an O(k^3) eigh of the k x k T.
_RITZ_CHECK_EVERY = 8


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of a dense matrix.

    Up to ``_LANCZOS_THRESHOLD`` rows and columns, a Hermitian or Gram eigensolver; above,
    an attained Rayleigh quotient from Lanczos, converged to a relative residual of 1e-14.
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    if max(M.shape) > _LANCZOS_THRESHOLD:
        M = M.astype(complex, copy=False)
        return _lanczos_norm(M.__matmul__, lambda u: np.conj(M.T @ np.conj(u)), M.shape[1])
    if M.shape[0] == M.shape[1] and np.array_equal(M, M.conj().T):
        return float(np.max(np.abs(np.linalg.eigvalsh(M))))
    return float(_gram_top(M[None])[2][0])


def _gram_top(M: np.ndarray):
    """Fresh Gram stack H = M^H M of a (B, m, n) stack, its top eigenvalues and their roots."""
    H = M.conj().transpose(0, 2, 1) @ M
    top = np.linalg.eigvalsh(H)[:, -1]
    return H, top, np.sqrt(np.maximum(top, 0.0))


def _compression_norm(f: AlgebraElement, radius: int) -> float:
    """Norm of f compressed to the radius ball, with no index map or double ball.

    For the values w of f at z_k, ``into[k, j]`` is the ball position of z_k x_j and
    ``back[k, i]`` that of z_k^{-1} x_i, -1 outside.  M[i, j] = f(x_i x_j^{-1}) is filled
    from ``into`` and normed up to ``_LANCZOS_THRESHOLD``; above, Lanczos takes M v and
    M^H u as w @ v[back] and conj(w) @ u[into], with a trailing 0 that -1 reads.
    """
    b = ball(f.group, radius)
    n = len(b)
    support = _rows(f.support, b.coords.shape[1])  # a coordinate past int64 lies in no ball
    w = np.array([complex(v) for v in f._coeffs.values()])
    into = _product_positions(support, b.coords, b).astype(np.intp)  # gathers read intp uncast
    if n <= _LANCZOS_THRESHOLD:
        M = np.zeros((n + 1, n), dtype=complex)  # row n takes the products outside the ball
        M[into, np.arange(n)] = w[:, None]
        return spectral_norm(M[:n])
    back = _product_positions(f.group.inverse_array(support), b.coords, b).astype(np.intp)
    return _lanczos_norm(lambda v: w @ np.append(v, 0)[back],
                         lambda u: w.conj() @ np.append(u, 0)[into], n)


@dataclass(frozen=True)
class OpnormResult:
    """Certified lower bound for an operator norm from ball compressions."""

    estimate: float
    converged: bool
    last_radius: int


def opnorm(f: AlgebraElement, tol: float = 1e-8, r_max: int = 10) -> OpnormResult:
    """Estimate the operator norm of left convolution by f.

    Compression norms are nondecreasing in the radius, and each is attained
    (above the Lanczos crossover, a matrix-free Rayleigh quotient converged to
    a relative residual of 1e-14), so the running maximum is a certified lower
    bound; it starts at ||f||_2 = ||f delta_e||, so a nonzero f never gets 0.
    The scan stops once two successive radii differ by less than ``tol``
    (finite and positive), but never before the compression is large enough
    to see every support element of f; it starts one radius below that floor
    and ends at r_max at the latest, and it reads no index map or double ball
    at any radius (``_compression_norm``).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if r_max < 0:
        raise ValueError(f"r_max must be nonnegative, got {r_max}")
    if len(f) == 0:
        return OpnormResult(estimate=0.0, converged=True, last_radius=0)
    r_floor = (max(map(f.group.length, f.support)) + 1) // 2
    estimate = l2_norm(f)
    prev = None
    converged = False
    last = 0
    for radius in range(max(min(r_floor, r_max) - 1, 0), r_max + 1):
        sigma = _compression_norm(f, radius)
        estimate = max(estimate, sigma)
        last = radius
        if prev is not None and radius >= r_floor and abs(sigma - prev) < tol:
            converged = True
            break
        prev = sigma
    return OpnormResult(estimate=estimate, converged=converged, last_radius=last)


def lipnorm(f: AlgebraElement, s: int, tol: float = 1e-8, r_max: int = 10) -> float:
    """Lipschitz seminorm: operator norm of the s-th derivative of f."""
    return opnorm(derivative(f, s), tol=tol, r_max=r_max).estimate


def random_element(group, radius: int, rng: np.random.Generator) -> AlgebraElement:
    """Standard complex Gaussian coefficients on a uniformly chosen support."""
    b = ball(group, radius)
    n = len(b)
    k = int(rng.integers(1, n + 1))
    picks = np.sort(rng.choice(n, size=k, replace=False))
    coeffs = {}
    for g in map(tuple, b.coords[picks].tolist()):
        re, im = rng.standard_normal(2)
        coeffs[g] = complex(re, im) / math.sqrt(2)
    return AlgebraElement(group, coeffs)


def _sorted_rows(coords: np.ndarray) -> tuple:
    """(order, rows, new_base, new_run): the rows sorted lexicographically and where runs start.

    ``rows = coords[order]``.  A base is a row less its last coordinate;
    ``new_base`` marks the first row of each base and ``new_run`` the first
    row of each run, a maximal stretch of one base with consecutive last
    coordinates.
    """
    order = np.lexsort(coords.T[::-1])
    rows = coords[order]
    new_base = np.ones(len(rows), dtype=bool)
    new_base[1:] = np.any(rows[1:, :-1] != rows[:-1, :-1], axis=1)
    new_run = new_base.copy()
    new_run[1:] |= rows[1:, -1] != rows[:-1, -1] + 1
    return order, rows, new_base, new_run


def _fiber_counts(b, double) -> np.ndarray:
    """#(B ∩ zB) for every z in the double ball, counted along the central last coordinate.

    The ball's sorted rows fall into runs (base y', last coordinates lo..hi).
    Left multiplication by z = (z', t) sends the run onto base z'y', shifted
    by t + c(z', y'), so it overlaps a run of the ball at that base in a
    trapezoid of t whose second difference is four +-1 kinks.  The kinks of
    every run pair, for every base z' of the double ball, land on a (z', t)
    grid; summed twice along t, the grid holds the counts.  A fiber of many
    runs only adds run pairs.  The group products are taken in chunks of at
    most ``_CHUNK_BYTES``.
    """
    group, k = b.group, b.coords.shape[1]
    base_part = np.append(np.ones(k - 1, dtype=np.int64), 0)  # (y', t) -> (y', 0)
    _, rows, new_base, new_run = _sorted_rows(b.coords)
    starts = np.flatnonzero(new_run)
    lo, hi = rows[starts, -1], rows[np.append(starts[1:], len(rows)) - 1, -1]
    runs = rows[starts] * base_part
    # the runs of the ball's j-th base are first_run[j] .. first_run[j + 1] - 1
    first_run = np.append(np.flatnonzero(new_base[starts]), len(starts))
    base_position = _position_finder(runs[first_run[:-1], :-1])

    order, drows, dnew_base, _ = _sorted_rows(double.coords)
    grid_row = np.empty(len(double), dtype=np.int64)
    grid_row[order] = np.cumsum(dnew_base) - 1
    bases = drows[dnew_base] * base_part
    t_min = int(double.coords[:, -1].min())
    width = int(double.coords[:, -1].max()) - t_min + 3  # the last kink lies 2 past the top
    kinks = np.zeros(len(bases) * width, dtype=np.int64)
    chunk = max(1, _CHUNK_BYTES // (runs.itemsize * runs.size))
    for start in range(0, len(bases), chunk):
        prod = group.multiply_array(bases[start : start + chunk, None, :], runs[None])
        j = base_position(prod[..., :-1])
        z, s = np.nonzero(j >= 0)
        j = j[z, s]
        # pair each (z', source run s) with every run r at its image base
        many = first_run[j + 1] - first_run[j]
        r = np.repeat(first_run[j] - np.cumsum(many) + many, many) + np.arange(many.sum())
        cell = np.repeat((start + z) * width - prod[z, s, -1] - t_min, many)
        s = np.repeat(s, many)
        up = np.concatenate([cell + lo[r] - hi[s], cell + hi[r] - lo[s] + 2])
        down = np.concatenate([cell + lo[r] - lo[s] + 1, cell + hi[r] - hi[s] + 1])
        kinks += np.bincount(up, minlength=len(kinks)) - np.bincount(down, minlength=len(kinks))
    grid = kinks.reshape(len(bases), width).cumsum(axis=1).cumsum(axis=1)
    return grid[grid_row, double.coords[:, -1] - t_min]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Truncation:
    """The radius-lam ball, its double ball and the map between them; see ``_truncation``.

    The read-only arrays are built on first read: ``index_map[i, j]`` is the int32 position
    of x_i x_j^-1 in the double ball, so a symbol vector s over it compresses to
    ``s[index_map]``, whose adjoint is ``sums``; ``inverse[k]`` is the position of z_k^-1;
    ``lengths`` are the double ball's word lengths, the ball's being the first ``size``; and
    ``counts[k]`` is #(B ∩ z_k B), the map's bincount once it is built and, before that,
    counted along central fibers (``_fiber_counts``) where the group declares them.  So a
    truncation is also the overlap kernel K = counts / size: calling it on an element, and
    ``values`` (a dict over the double ball), give exact Fractions, and ``folner_epsilon`` is
    the worst generator's #(B \\ gB)/#B.
    """

    def __init__(self, group, lam: int):
        self.group, self.radius = group, lam
        self.ball, self.double = ball(group, lam), ball(group, 2 * lam)
        self.size = len(self.ball)

    @cached_property
    def index_map(self) -> np.ndarray:
        coords = self.ball.coords
        idx = _product_positions(coords, self.group.inverse_array(coords), self.double)
        return _read_only(idx)

    @cached_property
    def inverse(self) -> np.ndarray:
        return _read_only(self.double.positions(self.group.inverse_array(self.double.coords)))

    @cached_property
    def lengths(self) -> np.ndarray:
        return _read_only(self.double.lengths_at(np.arange(len(self.double))))

    def weights(self, s: int) -> np.ndarray:
        """len^s over the double ball, a new float array powered in floats, so none wraps."""
        return self.lengths.astype(float) ** s

    @cached_property
    def counts(self) -> np.ndarray:
        if "index_map" in vars(self) or not getattr(self.group, "central_last_coordinate", False):
            return _read_only(np.bincount(self.index_map.ravel(), minlength=len(self.double)))
        return _read_only(_fiber_counts(self.ball, self.double))

    def sums(self, W: np.ndarray) -> np.ndarray:
        """Sums of each n x n matrix of the stack W at every double-ball position of the map.

        vdot(s[index_map], W) = vdot(s, sums(W)); a real W gets real sums from one ``bincount``.
        """
        flat, w, slots = self.index_map.ravel(), W.ravel(), len(self.double)
        rows = len(w) // len(flat)
        bins, size = (flat + slots * np.arange(rows)[:, None]).ravel(), rows * slots
        if np.isrealobj(w):
            g = np.bincount(bins, w, size)
        else:
            g = np.bincount(bins, w.real, size) + 1j * np.bincount(bins, w.imag, size)
        return g.reshape(*W.shape[:-2], slots)

    @cached_property
    def folner_epsilon(self) -> Fraction:
        at_generators = self.counts_at(self.group.generators).tolist()
        return max(Fraction(self.size - c, self.size) for c in at_generators)

    def counts_at(self, elements) -> np.ndarray:
        """#(B ∩ zB) for each element z, 0 off the double ball."""
        pos = self.double.positions(elements)
        return np.where(pos >= 0, self.counts[pos], 0)

    def __call__(self, x) -> Fraction:
        return Fraction(int(self.counts_at([x])[0]), self.size)

    @cached_property
    def values(self) -> dict:
        counts = self.counts.tolist()
        return {x: Fraction(c, self.size) for x, c in zip(self.double.elements, counts)}


_TRUNCATIONS: dict = {}


def _truncation(group, lam: int) -> Truncation:
    """The one truncation of (group, lam); the radius and the cap are checked before the cache."""
    _check_radius(lam)
    ball(group, 2 * lam)
    key = (group, lam)
    return _TRUNCATIONS.get(key) or _TRUNCATIONS.setdefault(key, Truncation(group, lam))


def symbol_positions(group, radius: int) -> np.ndarray:
    """Index map of a ball compression: the ``index_map`` of the radius's truncation."""
    return _truncation(group, radius).index_map


def fejer_kernel(group, lam: int) -> Truncation:
    """Exact overlap kernel of the radius-lam ball: its truncation, with the counts built."""
    kern = _truncation(group, lam)
    kern.counts  # the counts are the kernel's cost, so they are built here, not at first use
    return kern


def fejer_apply(f: AlgebraElement, lam: int) -> AlgebraElement:
    """Pointwise multiplication by the overlap kernel (a unital CP map)."""
    kern = fejer_kernel(f.group, lam)
    counts = kern.counts_at(list(f.support)).tolist()
    return AlgebraElement(
        f.group, {g: Fraction(c, kern.size) * v for (g, v), c in zip(f.items(), counts) if c}
    )


def _format_value(v, exact: bool) -> tuple[str, str]:
    if exact:
        if isinstance(v, (int, Fraction)):
            return str(Fraction(v)), "0"
        raise ValueError(f"exact output requires rational coefficients, got {v!r}")
    c = complex(v)
    return repr(c.real), repr(c.imag)


def _parse_value(token: str):
    """An integer or ``p/q`` token exactly, any other finite number as a float."""
    for parse in (Fraction,) if "/" in token else (int, float):
        try:
            value = parse(token)
        except (ValueError, ZeroDivisionError):
            continue
        if not isinstance(value, float) or math.isfinite(value):
            return value
    raise ValueError(f"bad coefficient {token!r}")


def format_algebra_element(f: AlgebraElement, exact: bool = False) -> str:
    """Render one coefficient per line: real part, imaginary part, coordinates.

    With ``exact=True`` rational coefficients are written as fractions such
    as ``4/5`` and must be real.
    """
    lines = []
    for g in sorted(f.support):
        re, im = _format_value(f[g], exact)
        coords = " ".join(str(c) for c in g)
        lines.append(f"{re} {im} {coords}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_algebra_element(text: str, group) -> AlgebraElement:
    """Parse the line format produced by :func:`format_algebra_element`."""
    coeffs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"line {lineno}: expected 're im coords...', got {raw!r}")
        try:
            re, im = _parse_value(parts[0]), _parse_value(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        try:
            g = tuple(int(p) for p in parts[2:])
        except ValueError:
            raise ValueError(f"line {lineno}: bad coordinates in {raw!r}") from None
        value = re if im == 0 else complex(re, im)
        coeffs[g] = coeffs.get(g, 0) + value
    return AlgebraElement(group, coeffs)
