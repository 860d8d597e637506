"""The group algebra: convolution, derivatives, norms, and ball averaging.

An :class:`AlgebraElement` is a finitely supported function from a group to
the complex numbers, multiplied by convolution and represented on l2 of the
group by left convolution operators.  Operator norms are estimated from
below by compressions to balls of growing radius; the multiplication
operator by word length acts as a Dirac-type derivative and induces the
Lipschitz seminorms used throughout.

Coefficients may be ints, floats, complexes, or ``fractions.Fraction``
values.  Arithmetic preserves exact types, so identities that hold in
rational arithmetic can be checked for literal equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional

import numpy as np

from .cayley import ball, word_length

__all__ = [
    "AlgebraElement",
    "delta",
    "unit",
    "convolve",
    "involution",
    "derivative",
    "l1_norm",
    "l2_norm",
    "sobolev_norm",
    "compress_rep",
    "spectral_norm",
    "OpnormResult",
    "opnorm",
    "lipnorm",
    "random_element",
    "rd_ratio",
    "RDEstimate",
    "rd_probe",
    "FejerKernel",
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

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_group(self, other)
        out = dict(self._coeffs)
        for g, v in other._coeffs.items():
            out[g] = out.get(g, 0) + v
        return AlgebraElement(self.group, out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __neg__(self) -> "AlgebraElement":
        return (-1) * self

    def __mul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: v * scalar for g, v in self._coeffs.items()})

    def __rmul__(self, scalar) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: scalar * v for g, v in self._coeffs.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.group == other.group and self._coeffs == other._coeffs

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


def derivative(f: AlgebraElement, s: int = 1) -> AlgebraElement:
    """Pointwise multiplication by the s-th power of word length.

    The identity coefficient is annihilated (its length is zero), so scalars
    are exactly the kernel of every induced seminorm.
    """
    if s < 1:
        raise ValueError(f"derivative order must be a positive integer, got {s}")
    grp = f.group
    out = {}
    for g, v in f.items():
        length = word_length(grp, g)
        if length:
            out[g] = v * length**s
    return AlgebraElement(grp, out)


def l1_norm(f: AlgebraElement) -> float:
    return float(sum(abs(complex(v)) for v in f._coeffs.values()))


def l2_norm(f: AlgebraElement) -> float:
    return math.sqrt(sum(abs(complex(v)) ** 2 for v in f._coeffs.values()))


def sobolev_norm(f: AlgebraElement, s) -> float:
    """Weighted l2 norm with weight (1 + word length)^s."""
    if s <= 0:
        raise ValueError(f"Sobolev exponent must be positive, got {s}")
    total = 0.0
    for g, v in f.items():
        w = (1 + word_length(f.group, g)) ** (2 * s)
        total += w * abs(complex(v)) ** 2
    return math.sqrt(total)


def _balls(group, radius: int, cap: Optional[int]):
    """The radius ball under the element cap, and its double ball.

    Every element of the double ball is x y^{-1} for some x, y in the ball,
    so the double ball is no larger than the n x n index map it fills; the
    cap bounds the ball, and the map bounds the double ball.
    """
    b = ball(group, radius, cap=cap)
    return b, ball(group, 2 * radius, cap=len(b) ** 2)


@lru_cache(maxsize=None)
def _index_map(b, double) -> np.ndarray:
    group = b.group
    mul, pos = group.multiply, double.index
    inverses = [group.inverse(y) for y in b.elements]
    idx = np.empty((len(b), len(b)), dtype=np.int32)
    for i, x in enumerate(b.elements):
        idx[i] = [pos[mul(x, yinv)] for yinv in inverses]
    idx.setflags(write=False)
    return idx


def symbol_positions(group, radius: int, cap: Optional[int] = None) -> np.ndarray:
    """Index map of a ball compression: where each entry reads the symbol.

    Entry (i, j) is the position of x_i x_j^{-1} in the BFS order of the
    double ball, so the compression of a symbol vector s over the double
    ball is ``s[idx]``.  The read-only int32 map is cached per ball; the
    element cap applies to the radius ball and is checked on every call.
    """
    return _index_map(*_balls(group, radius, cap))


# Hit and miss counts of the map cache, read as on any lru_cache'd function.
symbol_positions.cache_info = _index_map.cache_info


def _symbol_vector(group, radius: int, items, cap: Optional[int] = None) -> np.ndarray:
    """Symbol values over the double ball's order; terms outside it are dropped."""
    _, double = _balls(group, radius, cap)
    vec = np.zeros(len(double), dtype=complex)
    for z, v in items:
        i = double.index.get(z)
        if i is not None:
            vec[i] = complex(v)
    return vec


def compress_rep(f: AlgebraElement, radius: int, cap: Optional[int] = None) -> np.ndarray:
    """Matrix of the left convolution operator compressed to a ball.

    Entry (x, y) is f(x y^{-1}) with respect to the ball's element order.
    """
    idx = symbol_positions(f.group, radius, cap=cap)
    return _symbol_vector(f.group, radius, f.items(), cap=cap)[idx]


def _power_norm(M: np.ndarray, iters: int = 500, tol: float = 1e-13) -> float:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(M.shape[1]) + 1j * rng.standard_normal(M.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(iters):
        w = M.conj().T @ (M @ v)
        norm = np.linalg.norm(w)
        if norm == 0:
            return 0.0
        v = w / norm
        if abs(norm - prev) <= tol * max(norm, 1.0):
            prev = norm
            break
        prev = norm
    return math.sqrt(prev)


def spectral_norm(M: np.ndarray, power_threshold: int = 2000) -> float:
    """Largest singular value of a dense matrix.

    Uses a Hermitian eigensolver when possible, the normal-matrix eigensolver
    otherwise, and power iteration above ``power_threshold``.
    """
    M = np.asarray(M)
    if M.size == 0:
        return 0.0
    n = max(M.shape)
    if n > power_threshold:
        return _power_norm(M)
    if M.shape[0] == M.shape[1] and np.array_equal(M, M.conj().T):
        return float(np.max(np.abs(np.linalg.eigvalsh(M))))
    gram = M.conj().T @ M
    top = float(np.max(np.linalg.eigvalsh(gram)))
    return math.sqrt(max(top, 0.0))


@dataclass(frozen=True)
class OpnormResult:
    """Certified lower bound for an operator norm from ball compressions."""

    estimate: float
    converged: bool
    last_radius: int


def opnorm(
    f: AlgebraElement,
    tol: float = 1e-8,
    r_max: int = 10,
    r_min: int = 0,
    cap: Optional[int] = None,
) -> OpnormResult:
    """Estimate the operator norm of left convolution by f.

    Compression norms are computed for radii 0..r_max and are nondecreasing,
    so the running maximum is a certified lower bound.  The scan stops once
    two successive radii differ by less than ``tol``, but never before the
    compression is large enough to see every support element of f (and never
    before ``r_min``).
    """
    if r_max < 0:
        raise ValueError(f"r_max must be nonnegative, got {r_max}")
    if len(f) == 0:
        return OpnormResult(estimate=0.0, converged=True, last_radius=0)
    reach = max(word_length(f.group, g) for g in f.support)
    r_floor = max(r_min, (reach + 1) // 2)
    estimate = 0.0
    prev = None
    converged = False
    last = 0
    for radius in range(r_max + 1):
        sigma = spectral_norm(compress_rep(f, radius, cap=cap))
        estimate = max(estimate, sigma)
        last = radius
        if prev is not None and radius >= r_floor and abs(sigma - prev) < tol:
            converged = True
            break
        prev = sigma
    return OpnormResult(estimate=estimate, converged=converged, last_radius=last)


def lipnorm(
    f: AlgebraElement,
    s: int,
    tol: float = 1e-8,
    r_max: int = 10,
    r_min: int = 0,
    cap: Optional[int] = None,
) -> float:
    """Lipschitz seminorm: operator norm of the s-th derivative of f."""
    return opnorm(derivative(f, s), tol=tol, r_max=r_max, r_min=r_min, cap=cap).estimate


def random_element(group, radius: int, rng: np.random.Generator) -> AlgebraElement:
    """Standard complex Gaussian coefficients on a uniformly chosen support."""
    b = ball(group, radius)
    n = len(b)
    k = int(rng.integers(1, n + 1))
    picks = rng.choice(n, size=k, replace=False)
    coeffs = {}
    for i in sorted(int(p) for p in picks):
        re, im = rng.standard_normal(2)
        coeffs[b.elements[i]] = complex(re, im) / math.sqrt(2)
    return AlgebraElement(group, coeffs)


def rd_ratio(f: AlgebraElement, s, tol: float = 1e-8, r_max: int = 8) -> float:
    """Operator norm over Sobolev norm, a witness ratio for rapid decay."""
    denom = sobolev_norm(f, s)
    if denom == 0:
        raise ValueError("ratio undefined for the zero element")
    return opnorm(f, tol=tol, r_max=r_max).estimate / denom


@dataclass(frozen=True)
class RDEstimate:
    """Best observed rapid-decay ratio, a lower bound for the true constant."""

    exponent: float
    constant: float
    trials: int
    seed: int


def rd_probe(
    group,
    s,
    trials: int,
    seed: int,
    support_radius: int = 4,
    tol: float = 1e-8,
    r_max: int = 8,
) -> RDEstimate:
    """Probe the Sobolev-vs-operator-norm inequality with random elements.

    The identity basis element is always probed (ratio exactly 1), followed by
    ``trials`` random elements supported in the ball of ``support_radius``.
    Each trial draws from an independently derived seed, so results do not
    depend on evaluation order.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    best = rd_ratio(unit(group), s, tol=tol, r_max=r_max)
    children = np.random.SeedSequence(seed).spawn(trials)
    for child in children:
        rng = np.random.default_rng(child)
        f = random_element(group, support_radius, rng)
        best = max(best, rd_ratio(f, s, tol=tol, r_max=r_max))
    return RDEstimate(exponent=float(s), constant=best, trials=trials, seed=seed)


@dataclass(frozen=True)
class FejerKernel:
    """Ball-overlap averaging kernel, exact rational values on the double ball.

    ``values[x]`` is #(B ∩ xB)/#B for the ball B of the given radius; it is 1
    at the identity, symmetric under inversion, and vanishes off the double
    ball.  ``folner_epsilon`` is the worst single-generator boundary ratio
    max_g #(B \\ gB)/#B.
    """

    group: object
    radius: int
    values: dict
    folner_epsilon: Fraction

    def __call__(self, x) -> Fraction:
        return self.values.get(x, Fraction(0))


_FEJER_CACHE: dict = {}


def fejer_kernel(group, lam: int, cap: Optional[int] = None) -> FejerKernel:
    """Exact overlap kernel of the radius-lam ball, cached per (group, lam).

    #(B ∩ zB) counts the entries of the ball's index map that read z, so
    the kernel is one bincount of the map.  The element cap applies to the
    double ball and is checked before the cache lookup.
    """
    if lam < 1:
        raise ValueError(f"truncation radius must be at least 1, got {lam}")
    double = ball(group, 2 * lam, cap=cap)
    cached = _FEJER_CACHE.get((group, lam))
    if cached is not None:
        return cached
    idx = symbol_positions(group, lam, cap=cap)
    size = len(idx)
    counts = np.bincount(idx.ravel(), minlength=len(double)).tolist()
    values = {x: Fraction(c, size) for x, c in zip(double.elements, counts)}
    eps = max(Fraction(size - counts[double.index[g]], size) for g in group.generators)
    kern = FejerKernel(group=group, radius=lam, values=values, folner_epsilon=eps)
    _FEJER_CACHE[(group, lam)] = kern
    return kern


def fejer_apply(f: AlgebraElement, lam: int, cap: Optional[int] = None) -> AlgebraElement:
    """Pointwise multiplication by the overlap kernel (a unital CP map)."""
    kern = fejer_kernel(f.group, lam, cap=cap)
    out = {}
    for g, v in f.items():
        w = kern.values.get(g)
        if w:
            out[g] = w * v
    return AlgebraElement(f.group, out)


def _format_value(v, exact: bool) -> tuple[str, str]:
    if exact:
        if isinstance(v, (int, Fraction)):
            return str(Fraction(v)), "0"
        raise ValueError(f"exact output requires rational coefficients, got {v!r}")
    c = complex(v)
    return repr(c.real), repr(c.imag)


def _parse_value(token: str):
    if "/" in token:
        return Fraction(token)
    return float(token)


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
        re = _parse_value(parts[0])
        im = _parse_value(parts[1])
        try:
            g = tuple(int(p) for p in parts[2:])
        except ValueError:
            raise ValueError(f"line {lineno}: bad coordinates in {raw!r}") from None
        group.validate(g)
        value = re if im == 0 else complex(re, im)
        coeffs[g] = coeffs.get(g, 0) + value
    return AlgebraElement(group, coeffs)
