"""Group engine: element arithmetic, word metrics, balls, and growth.

The group contract.  Elements are integer tuples of one fixed length in a
unique normal form, so they hash and compare cheaply.  A group exposes
``identity()``, ``multiply(g, h)``, ``inverse(g)``, ``validate(g)``,
``length(g)`` (the exact word length of any element, in closed form), its
``generators`` and a ``name``, and also ``multiply_array(g, h)`` and
``inverse_array(g)``: the same law on int64 coordinate arrays of shape
``(..., k)``, broadcasting like numpy arithmetic.  The generating set must be
closed under inversion, so that word-metric balls are symmetric; ball
enumeration raises ValueError otherwise.  Balls and index maps are built from
the array forms.  A group may also set ``central_last_coordinate = True`` when
its product has the normal form (g', s)(h', t) = (g'h', s + t + c(g', h')):
the base g'h' and the cocycle c depend only on the other coordinates, so left
multiplication translates each fiber {t : (h', t) in B} rigidly.  The overlap
kernel then counts along those fibers instead of through an index map.  The
built-in groups are the free abelian groups Z^d and the discrete Heisenberg
group, and both declare it; any other object meeting the contract can be
dropped in beside them.  A ball is a prefix of its group's one enumeration,
int64 rows and sphere sizes, and answers every position, membership and length
query through one packed-key lookup, ``Ball.positions``; its sphere sizes
are the reference for each group's ``length``.  One element cap is in force
at a time: ``ball`` reads it, so every enumeration of every layer is bounded
by it, and ``element_cap`` sets it for a block.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "DEFAULT_BALL_CAP",
    "Ball",
    "FreeAbelian",
    "GrowthReport",
    "Heisenberg",
    "ResourceCapError",
    "ball",
    "element_cap",
    "group_from_key",
    "growth_report",
    "word_length",
]

Element = tuple

DEFAULT_BALL_CAP = 200_000
_ELEMENT_CAP: ContextVar = ContextVar("element_cap", default=DEFAULT_BALL_CAP)


def _is_int(x) -> bool:
    """An int or a numpy integer, never a bool: ``True`` is no radius, dimension or coordinate."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


class ResourceCapError(RuntimeError):
    """A ball enumeration grew past the configured element cap."""


@dataclass(frozen=True)
class FreeAbelian:
    """Z^d with the 2d standard generators, plus and minus each unit vector."""

    dim: int

    central_last_coordinate = True

    def __post_init__(self) -> None:
        if not _is_int(self.dim) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")

    @property
    def name(self) -> str:
        return f"z:{self.dim}"

    @property
    def generators(self) -> tuple[Element, ...]:
        gens = []
        for i in range(self.dim):
            unit = tuple(1 if j == i else 0 for j in range(self.dim))
            gens.append(unit)
            gens.append(tuple(-c for c in unit))
        return tuple(gens)

    def identity(self) -> Element:
        return (0,) * self.dim

    def multiply(self, g: Element, h: Element) -> Element:
        self.validate(g)
        self.validate(h)
        return tuple(a + b for a, b in zip(g, h))

    def inverse(self, g: Element) -> Element:
        self.validate(g)
        return tuple(-a for a in g)

    def multiply_array(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        return g + h

    def inverse_array(self, g: np.ndarray) -> np.ndarray:
        return -g

    def length(self, g: Element) -> int:
        return sum(abs(int(a)) for a in g)

    def validate(self, g) -> None:
        if (
            not isinstance(g, tuple)
            or len(g) != self.dim
            or not all(_is_int(a) for a in g)
        ):
            raise ValueError(f"{g!r} is not a valid element of {self.name}")


@dataclass(frozen=True)
class Heisenberg:
    """Discrete Heisenberg group in normal-form coordinates (x, y, z).

    The product is (x1,y1,z1)(x2,y2,z2) = (x1+x2, y1+y2, z1+z2+x1*y2), which
    matches upper unitriangular integer matrices with x above the diagonal in
    the first row, y in the second, and z in the corner.  Generators are
    a = (1,0,0), b = (0,1,0) and their inverses.  The last coordinate is
    central, with cocycle x1*y2.
    """

    central_last_coordinate = True

    @property
    def name(self) -> str:
        return "heisenberg"

    @property
    def generators(self) -> tuple[Element, ...]:
        return ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0))

    def identity(self) -> Element:
        return (0, 0, 0)

    def multiply(self, g: Element, h: Element) -> Element:
        self.validate(g)
        self.validate(h)
        return (g[0] + h[0], g[1] + h[1], g[2] + h[2] + g[0] * h[1])

    def inverse(self, g: Element) -> Element:
        self.validate(g)
        return (-g[0], -g[1], g[0] * g[1] - g[2])

    def multiply_array(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        out = g + h
        out[..., 2] += g[..., 0] * h[..., 1]
        return out

    def inverse_array(self, g: np.ndarray) -> np.ndarray:
        out = -g
        out[..., 2] += g[..., 0] * g[..., 1]
        return out

    def length(self, g: Element) -> int:
        """Word length in closed form (Blachère, Colloq. Math. 95, 2003).

        A word is a lattice path to (x, y) whose area integral of x dy is z.  Reflected to
        x, y >= 0, the paths of length x + y reach every area in [0, xy]; an area A beyond
        that costs the boundary of a W x H box with W >= |x|, H >= |y| and WH >= A.
        """
        x, y, z = (int(c) for c in g)
        a, b = abs(x), abs(y)
        c = -z if (x < 0) != (y < 0) else z
        if 0 <= c <= a * b:
            return a + b
        area = c if c > a * b else a * b - c
        side = max(a, b)
        if side * side >= area:
            half = side - (-area // side)
        else:
            k = math.isqrt(4 * area)
            half = k + (k * k != 4 * area)
        return 2 * half - a - b

    def validate(self, g) -> None:
        if not isinstance(g, tuple) or len(g) != 3 or not all(_is_int(a) for a in g):
            raise ValueError(f"{g!r} is not a valid element of heisenberg")


def group_from_key(key: str):
    """Parse a group selection string, either ``z:<d>`` or ``heisenberg``."""
    k = key.strip().lower()
    if k == "heisenberg":
        return Heisenberg()
    if k.startswith("z:"):
        try:
            dim = int(k[2:])
        except ValueError:
            raise ValueError(f"bad dimension in group key {key!r}") from None
        return FreeAbelian(dim)
    raise ValueError(f"unknown group key {key!r} (expected 'z:<d>' or 'heisenberg')")


def _packing(coords: np.ndarray) -> list:
    """(c, lo, hi - lo, stride) per column c, last first: how the (n, k) rows' box is numbered.

    Lexicographically, so keys compare as the rows do.  The numbers are 0-d uint64 arrays,
    which numpy combines with an array fastest.  Raises ResourceCapError past 2**63 points.
    """
    lo = [int(column.min()) for column in coords.T]
    hi = [int(column.max()) for column in coords.T]
    columns, volume = [], 1
    for c in reversed(range(len(lo))):
        numbers = (lo[c] % 2**64, hi[c] - lo[c], volume)
        columns.append((c, *(np.array(x, dtype=np.uint64) for x in numbers)))
        volume *= hi[c] - lo[c] + 1
    if volume > 2**63:
        raise ResourceCapError(f"coordinates spanning {lo} to {hi} do not pack into 64-bit keys")
    return columns


_NO_KEY = np.iinfo(np.uint64).max  # the key of a row outside the box, past every 63-bit key


def _pack(coords: np.ndarray, packing: list) -> np.ndarray:
    """uint64 keys of int64 rows of shape (m, ..., k), one multiply-add and bounds test per column.

    Rows pack as they are, modulo 2**64, so a row in the box gets its exact key; a row with a
    column whose difference from lo, mod 2**64, passes hi - lo (exact for any int64) gets _NO_KEY.
    """
    if not packing:  # no columns: every row is the box's one point, key 0
        return np.zeros(coords.shape[:-1], dtype=np.uint64)
    rows = coords.view(np.uint64)
    (c, lo, span, _), *rest = packing  # the last column, stride 1, starts the keys: no array fill
    keys = rows[..., c] - lo
    outside = keys > span
    for c, lo, span, stride in rest:
        digit = rows[..., c] - lo
        outside |= digit > span
        keys += digit * stride
    keys[outside] = _NO_KEY
    return keys


def _rows(elements, k: int) -> np.ndarray:
    """Element tuples as (n, k) int64 rows; a coordinate past int64 reads +-2**62, in no ball."""
    flat = list(chain.from_iterable(elements))
    try:
        rows = np.array(flat, dtype=np.int64)
    except OverflowError:
        rows = np.array([max(-(2**62), min(c, 2**62)) for c in flat], dtype=np.int64)
    return rows.reshape(len(elements), k)


def _position_finder(coords: np.ndarray):
    """Map coordinate rows to their row numbers in ``coords``, or -1 for nonmembers: one
    ``searchsorted`` of their keys on the sorted keys, which end in ``_NO_KEY`` at -1."""
    packing = _packing(coords)
    keys = _pack(coords, packing)
    # Keys are distinct, so any sort gives this order; the stable one is the
    # sort np.unique already runs, which keeps one sort routine in memory.
    order = np.argsort(keys, kind="stable")
    sorted_keys, order = np.append(keys[order], _NO_KEY), np.append(order, -1)

    def position(rows: np.ndarray) -> np.ndarray:
        keys = _pack(rows, packing)
        at = sorted_keys.searchsorted(keys)  # the method skips np.searchsorted's dispatch
        out = order[at]
        out[sorted_keys[at] != keys] = -1
        return out
    return position


class _Enumeration:
    """Breadth-first enumeration of one group, grown one sphere at a time.

    Each sphere is sorted lexicographically, so the ball of radius r is the
    first ``sizes[r]`` rows of ``coords``, and every ball of the group is a
    prefix of this one array.
    """

    def __init__(self, group):
        self.group = group
        e = group.identity()
        self.generators = np.array(group.generators, dtype=np.int64).reshape(-1, len(e))
        generators = set(map(tuple, self.generators.tolist()))
        if not generators.issuperset(map(tuple, group.inverse_array(self.generators).tolist())):
            raise ValueError(f"the generators of {group.name} are not closed under inversion")
        self.coords = np.array([e], dtype=np.int64)
        self.coords.setflags(write=False)
        self.previous = self.coords[:0]
        self.frontier = self.coords
        self.sizes = [1]

    def size(self, radius: int) -> int:
        return self.sizes[min(radius, len(self.sizes) - 1)]

    def lengths(self, positions) -> np.ndarray:
        """Word length of the rows at these positions, the radius of their spheres."""
        return np.searchsorted(self.sizes, positions, side="right")

    def extend(self, radius: int, cap: int) -> bool:
        """Enumerate up to the radius; False at a sphere that passes the cap, which is dropped."""
        while len(self.sizes) <= radius and len(self.frontier):
            sphere = self._next_sphere()
            if self.sizes[-1] + len(sphere) > cap:
                return False
            self.coords = np.concatenate([self.coords, sphere])
            self.coords.setflags(write=False)
            self.previous, self.frontier = self.frontier, sphere
            self.sizes.append(len(self.coords))
        return True

    def _next_sphere(self) -> np.ndarray:
        """The frontier times the generators, less the last two spheres.

        The generating set is symmetric, so a neighbour of the radius-r
        sphere lies at radius r - 1, r or r + 1, and only the spheres r - 1
        and r can already hold a product.  ``np.unique`` keeps the first
        occurrence of each key, so such a product drops out, and the new
        sphere comes out sorted by key, that is lexicographically.
        """
        k = self.coords.shape[1]
        grown = self.group.multiply_array(self.frontier[:, None, :], self.generators[None, :, :])
        candidates = np.concatenate([self.previous, self.frontier, grown.reshape(-1, k)])
        _, first = np.unique(_pack(candidates, _packing(candidates)), return_index=True)
        return candidates[first[first >= len(self.previous) + len(self.frontier)]]


class Ball:
    """Enumerated closed ball with a fixed element order and exact word lengths.

    Elements appear in BFS layer order with each layer sorted
    lexicographically, so indexing is deterministic across runs.  ``coords``
    is a read-only (n, k) int64 view of a prefix of the group's enumeration,
    whose sphere sizes give word lengths.  The tuples ``elements`` and
    ``lengths`` are built on first read and cached; counts, lookups and
    length queries build neither.
    """

    def __init__(self, enumeration: _Enumeration, radius: int):
        self.group = enumeration.group
        self.radius = radius
        self._size = enumeration.size(radius)
        self._enumeration = enumeration

    @property
    def coords(self) -> np.ndarray:
        return self._enumeration.coords[: self._size]

    @cached_property
    def elements(self) -> tuple:
        return tuple(map(tuple, self.coords.tolist()))

    @cached_property
    def lengths(self) -> tuple:
        return tuple(self.lengths_at(np.arange(self._size)).tolist())

    def lengths_at(self, positions) -> np.ndarray:
        """Word lengths at these positions in the ball's order; IndexError outside 0 .. len - 1."""
        positions = np.asarray(positions)
        if positions.size and not 0 <= positions.min() <= positions.max() < self._size:
            raise IndexError(f"positions outside 0 .. {self._size - 1} of {self!r}")
        return self._enumeration.lengths(positions)

    @cached_property
    def _finder(self):
        return _position_finder(self.coords)

    def positions(self, elements) -> np.ndarray:
        """Position of each element in the ball's order, or -1 for a nonmember.

        ``elements`` is an int64 array of coordinate rows of shape (m, ..., k), or
        a sequence of element tuples, whose coordinates past int64 read as
        nonmembers.
        """
        if not isinstance(elements, np.ndarray):
            elements = _rows(elements, self.coords.shape[1])
        return self._finder(elements)

    def _position(self, g) -> int:
        """Position of one element, or -1 for a nonmember or anything not an element."""
        k = self.coords.shape[1]
        if isinstance(g, tuple) and len(g) == k and all(_is_int(a) for a in g):
            return int(self.positions([g])[0])
        return -1

    def __len__(self) -> int:
        return self._size

    def __contains__(self, g) -> bool:
        return self._position(g) >= 0

    def __iter__(self) -> Iterator:
        return iter(self.elements)

    def length_of(self, g) -> int:
        """Exact word length of a ball member; KeyError for anything else."""
        i = self._position(g)
        if i < 0:
            raise KeyError(g)
        return int(self.lengths_at(i))

    def __repr__(self) -> str:
        return f"Ball({self.group.name}, radius={self.radius}, size={len(self)})"


_BALL_CACHE: dict = {}
# One enumeration per group, extended under the lock by every thread.
_ENUMERATIONS: dict = {}
_ENUMERATIONS_LOCK = threading.Lock()


@contextmanager
def element_cap(limit: Optional[int]):
    """Put the element cap ``limit`` in force for the block; None keeps the cap in force.

    The cap lives in a ContextVar, so it is restored when the block ends, by an
    exception too, and a thread started inside the block sees the default cap.
    """
    token = _ELEMENT_CAP.set(_ELEMENT_CAP.get() if limit is None else limit)
    try:
        yield
    finally:
        _ELEMENT_CAP.reset(token)


def ball(group, radius: int, cap: Optional[int] = None) -> Ball:
    """Closed word-metric ball of the given radius around the identity.

    Raises ResourceCapError if the ball has more than ``cap`` elements, by
    default the cap in force (200,000 outside any ``element_cap`` block); the
    group's enumeration stops at the first sphere that passes the cap.  A cap
    below 1 is a ValueError, and so is a generating set not closed under
    inversion.  Results are cached per (group, radius).
    """
    if not _is_int(radius) or radius < 0:
        raise ValueError(f"radius must be a nonnegative integer, got {radius!r}")
    cap = _ELEMENT_CAP.get() if cap is None else cap
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    b = _BALL_CACHE.get((group, radius))
    if b is None:
        with _ENUMERATIONS_LOCK:
            enumeration = _ENUMERATIONS.get(group)
            if enumeration is None:
                enumeration = _ENUMERATIONS[group] = _Enumeration(group)
            if enumeration.extend(radius, cap):
                b = _BALL_CACHE[(group, radius)] = Ball(enumeration, radius)
    if b is None or len(b) > cap:
        raise ResourceCapError(f"ball of radius {radius} in {group.name} exceeds the cap of {cap} elements")
    return b


def word_length(group, g) -> int:
    """Length of a shortest generator word for g (0 for the identity), the group's ``length``."""
    group.validate(g)
    return group.length(g)


@dataclass(frozen=True)
class GrowthReport:
    """Ball-size statistics with log-log fits of growth and boundary decay.

    ``ball_sizes[r]`` is the size of the radius-r ball for r = 0..lam_max.
    ``boundary_ratios[r-1]`` is the exact sphere-to-ball ratio
    (size[r+1]-size[r])/size[r] for r = 1..lam_max-1.  ``fitted_beta`` is the
    decay exponent of the boundary ratios and ``fitted_degree`` the growth
    degree of the ball sizes, both least-squares slopes over ``fit_window``.
    """

    group_name: str
    ball_sizes: tuple
    boundary_ratios: tuple
    fitted_beta: float
    fitted_degree: float
    fit_window: tuple

    def ratio_at(self, radius: int) -> Fraction:
        if radius < 1 or radius - 1 >= len(self.boundary_ratios):
            raise ValueError(f"no boundary ratio recorded at radius {radius}")
        return self.boundary_ratios[radius - 1]


def growth_report(group, lam_max: int, fit_min: int = 2) -> GrowthReport:
    """Enumerate balls up to lam_max and fit growth/boundary exponents."""
    if lam_max < 2:
        raise ValueError(f"lam_max must be at least 2, got {lam_max}")
    sizes = [len(ball(group, r)) for r in range(lam_max + 1)]
    ratios = [Fraction(sizes[r + 1] - sizes[r], sizes[r]) for r in range(1, lam_max)]
    hi = lam_max - 1
    lo = min(max(1, fit_min), hi)
    radii = np.arange(lo, hi + 1)
    logs = np.log(radii.astype(float))
    ratio_logs = np.log([float(ratios[r - 1]) for r in radii])
    size_logs = np.log([float(sizes[r]) for r in radii])
    if len(radii) < 2:
        beta = float("nan")
        degree = float("nan")
    else:
        beta = -float(np.polyfit(logs, ratio_logs, 1)[0])
        degree = float(np.polyfit(logs, size_logs, 1)[0])
    return GrowthReport(
        group_name=group.name,
        ball_sizes=tuple(sizes),
        boundary_ratios=tuple(ratios),
        fitted_beta=beta,
        fitted_degree=degree,
        fit_window=(int(lo), int(hi)),
    )
