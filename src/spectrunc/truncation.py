"""Ball truncations of the group algebra and the maps in and out of them.

A :class:`ToeplitzOperator` stores the compression of a convolution operator
to a ball of radius lam: the matrix entry at (x, y) depends only on
x y^{-1}, so the whole operator is determined by a symbol supported on the
double ball.  ``compress`` restricts an algebra element to such a symbol,
``reconstruct`` maps a truncated operator back to the algebra by weighting
the symbol with the ball-overlap kernel, and ``averaging_check`` verifies the
finite averaging identity that makes the reconstruction completely positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .cayley import ball, word_length
from .groupalg import (
    AlgebraElement,
    fejer_kernel,
    spectral_norm,
    symbol_positions,
    _parse_value,
    _format_value,
    _symbol_vector,
)

__all__ = [
    "ToeplitzOperator",
    "compress",
    "identity_operator",
    "materialize",
    "truncated_derivative",
    "truncated_lipnorm",
    "reconstruct",
    "dirac_commutator",
    "averaging_check",
    "DefectResult",
    "truncation_defect",
    "random_selfadjoint",
    "random_psd",
    "format_toeplitz",
    "parse_toeplitz",
]


class ToeplitzOperator:
    """Ball compression of a convolution operator, stored by its symbol.

    The symbol assigns a coefficient to each element of the double ball; the
    materialized matrix over the radius-lam ball has entry symbol(x y^{-1})
    at position (x, y).
    """

    __slots__ = ("group", "radius", "_symbol")

    def __init__(self, group, radius: int, symbol: Mapping):
        if radius < 1:
            raise ValueError(f"truncation radius must be at least 1, got {radius}")
        double = ball(group, 2 * radius)
        clean = {}
        for z, v in symbol.items():
            group.validate(z)
            if z not in double:
                raise ValueError(
                    f"symbol entry at {z} lies outside the double ball of radius {2 * radius}"
                )
            if v != 0:
                clean[z] = v
        self.group = group
        self.radius = radius
        self._symbol = clean

    @property
    def symbol(self) -> dict:
        return dict(self._symbol)

    def symbol_at(self, z):
        return self._symbol.get(z, 0)

    def items(self):
        return self._symbol.items()

    @property
    def support(self):
        return self._symbol.keys()

    def is_selfadjoint(self) -> bool:
        inv = self.group.inverse
        for z, v in self._symbol.items():
            if self._symbol.get(inv(z), 0) != v.conjugate():
                return False
        return True

    def __add__(self, other: "ToeplitzOperator") -> "ToeplitzOperator":
        self._check_compatible(other)
        out = dict(self._symbol)
        for z, v in other._symbol.items():
            out[z] = out.get(z, 0) + v
        return ToeplitzOperator(self.group, self.radius, out)

    def __sub__(self, other: "ToeplitzOperator") -> "ToeplitzOperator":
        return self + (-1) * other

    def __mul__(self, scalar) -> "ToeplitzOperator":
        return ToeplitzOperator(
            self.group, self.radius, {z: v * scalar for z, v in self._symbol.items()}
        )

    def __rmul__(self, scalar) -> "ToeplitzOperator":
        return ToeplitzOperator(
            self.group, self.radius, {z: scalar * v for z, v in self._symbol.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ToeplitzOperator):
            return NotImplemented
        return (
            self.group == other.group
            and self.radius == other.radius
            and self._symbol == other._symbol
        )

    __hash__ = None

    def _check_compatible(self, other: "ToeplitzOperator") -> None:
        if self.group != other.group or self.radius != other.radius:
            raise ValueError("operators live on different truncations")

    def __repr__(self) -> str:
        return (
            f"ToeplitzOperator({self.group.name}, radius={self.radius}, "
            f"{len(self._symbol)} symbol terms)"
        )


def compress(f: AlgebraElement, lam: int) -> ToeplitzOperator:
    """Compression of a convolution operator to the radius-lam ball.

    The compressed matrix keeps exactly the coefficients of f on the double
    ball, so the symbol is the plain restriction of f.
    """
    double = ball(f.group, 2 * lam)
    symbol = {g: v for g, v in f.items() if g in double}
    return ToeplitzOperator(f.group, lam, symbol)


def identity_operator(group, lam: int) -> ToeplitzOperator:
    return ToeplitzOperator(group, lam, {group.identity(): 1})


def materialize(T: ToeplitzOperator) -> np.ndarray:
    """Dense matrix of the truncated operator over the ball's element order."""
    idx = symbol_positions(T.group, T.radius)
    return _symbol_vector(T.group, T.radius, T.items())[idx]


def truncated_derivative(T: ToeplitzOperator, s: int = 1) -> ToeplitzOperator:
    """Symbol-wise multiplication by word length to the s-th power."""
    if s < 1:
        raise ValueError(f"derivative order must be a positive integer, got {s}")
    grp = T.group
    out = {}
    for z, v in T.items():
        length = word_length(grp, z)
        if length:
            out[z] = v * length**s
    return ToeplitzOperator(grp, T.radius, out)


def truncated_lipnorm(T: ToeplitzOperator, s: int = 1) -> float:
    """Exact Lipschitz seminorm of a truncated operator (a finite matrix norm)."""
    return spectral_norm(materialize(truncated_derivative(T, s)))


def reconstruct(T: ToeplitzOperator) -> AlgebraElement:
    """Map a truncated operator back to the algebra with overlap weights.

    Each symbol coefficient is scaled by the exact kernel value at its group
    element; together with ``compress`` this realizes the two unital
    completely positive maps whose composite is the kernel multiplier.
    """
    kern = fejer_kernel(T.group, T.radius)
    out = {}
    for z, v in T.items():
        w = kern.values.get(z)
        if w:
            out[z] = v * w
    return AlgebraElement(T.group, out)


def dirac_commutator(T: ToeplitzOperator) -> np.ndarray:
    """Commutator of the compressed length multiplier with the operator.

    Entry (x, y) equals (len(x) - len(y)) * symbol(x y^{-1}).  Its norm is the
    naive commutator seminorm, which degenerates on symbols supported at the
    far edge of the double ball and is therefore not used as a Lip-norm.
    """
    b = ball(T.group, T.radius)
    lengths = np.array(b.lengths, dtype=float)
    M = materialize(T)
    return lengths[:, None] * M - M * lengths[None, :]


def averaging_check(T: ToeplitzOperator, xi: Mapping, pad: int) -> float:
    """Residual of the translate-averaging identity for the reconstruction.

    Sums the quadratic forms of T over all ball-compressed right translates
    of the vector xi and compares against the ball size times the quadratic
    form of the reconstructed algebra element.  The translate enumeration is
    exact; ``pad`` must bound the word length of every contributing
    translation or a ValueError is raised.
    """
    grp = T.group
    for g in xi:
        grp.validate(g)
    support = [g for g, v in xi.items() if v != 0]
    if not support:
        return 0.0
    b = ball(grp, T.radius)
    mul = grp.multiply
    inv = grp.inverse

    alphas = {mul(inv(s), x) for s in support for x in b.elements}
    worst = max(word_length(grp, a) for a in alphas)
    if worst > pad:
        raise ValueError(
            f"pad {pad} does not cover the contributing translations (need {worst})"
        )

    M = materialize(T)
    lhs = 0.0 + 0.0j
    for a in alphas:
        ainv = inv(a)
        u = np.array([complex(xi.get(mul(x, ainv), 0)) for x in b.elements])
        if np.any(u):
            lhs += np.vdot(u, M @ u)

    r = reconstruct(T)
    rhs = 0.0 + 0.0j
    for x, vx in xi.items():
        if vx == 0:
            continue
        acc = 0.0 + 0.0j
        for z, vz in r.items():
            y = mul(inv(z), x)
            vy = xi.get(y, 0)
            if vy != 0:
                acc += complex(vz) * complex(vy)
        rhs += complex(vx).conjugate() * acc
    rhs *= len(b)
    return abs(lhs - rhs)


@dataclass(frozen=True)
class DefectResult:
    """Distance from a truncated operator to its round-tripped reconstruction."""

    defect_norm: float
    lipnorm: float
    ratio: float


def truncation_defect(T: ToeplitzOperator, s: int = 1) -> DefectResult:
    """Norm of T minus compress(reconstruct(T)), absolute and per unit Lip-norm.

    The round trip rescales each symbol value by its kernel weight, so the
    defect is the materialized norm of (1 - weight) times the symbol.  Scalar
    operators are rejected, their Lip-norm vanishes and the ratio is undefined.
    """
    ident = T.group.identity()
    if all(z == ident for z in T.support):
        raise ValueError("defect ratio is undefined for scalar operators")
    kern = fejer_kernel(T.group, T.radius)
    residual = {z: v * (1 - kern.values.get(z, 0)) for z, v in T.items()}
    defect = spectral_norm(materialize(ToeplitzOperator(T.group, T.radius, residual)))
    lip = truncated_lipnorm(T, s)
    return DefectResult(defect_norm=defect, lipnorm=lip, ratio=defect / lip)


def random_selfadjoint(group, lam: int, rng: np.random.Generator) -> ToeplitzOperator:
    """Random self-adjoint truncated operator with Gaussian symbol entries."""
    double = ball(group, 2 * lam)
    inv = group.inverse
    symbol: dict = {}
    for z in double.elements:
        if z in symbol:
            continue
        zi = inv(z)
        if z == zi:
            symbol[z] = complex(rng.standard_normal())
        else:
            re, im = rng.standard_normal(2)
            v = complex(re, im) / np.sqrt(2)
            symbol[z] = v
            symbol[zi] = v.conjugate()
    return ToeplitzOperator(group, lam, symbol)


def random_psd(group, lam: int, rng: np.random.Generator) -> ToeplitzOperator:
    """Random positive truncated operator, compressed from a convolution square.

    Built as the compression of g* conv g for a random g supported in the
    radius-lam ball, so the product's support already fits the double ball
    and the compression is exactly positive semidefinite.
    """
    from .groupalg import convolve, involution, random_element

    g = random_element(group, lam, rng)
    return compress(convolve(g, involution(g)), lam)


def format_toeplitz(T: ToeplitzOperator, exact: bool = False) -> str:
    """Symbol file format: a ``lambda <radius>`` header, then coefficient lines."""
    lines = [f"lambda {T.radius}"]
    for z in sorted(T.support):
        re, im = _format_value(T.symbol_at(z), exact)
        coords = " ".join(str(c) for c in z)
        lines.append(f"{re} {im} {coords}")
    return "\n".join(lines) + "\n"


def parse_toeplitz(text: str, group) -> ToeplitzOperator:
    """Parse the symbol file format produced by :func:`format_toeplitz`."""
    radius = None
    symbol: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if radius is None:
            if parts[0] != "lambda" or len(parts) != 2:
                raise ValueError(f"line {lineno}: expected header 'lambda <radius>'")
            radius = int(parts[1])
            continue
        if len(parts) < 3:
            raise ValueError(f"line {lineno}: expected 're im coords...', got {raw!r}")
        re = _parse_value(parts[0])
        im = _parse_value(parts[1])
        z = tuple(int(p) for p in parts[2:])
        group.validate(z)
        value = re if im == 0 else complex(re, im)
        symbol[z] = symbol.get(z, 0) + value
    if radius is None:
        raise ValueError("missing 'lambda <radius>' header")
    return ToeplitzOperator(group, radius, symbol)
