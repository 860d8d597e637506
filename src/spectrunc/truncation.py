"""Ball truncations of the group algebra and the maps in and out of them.

A :class:`ToeplitzOperator` stores the compression of a convolution operator
to a ball of radius lam: the matrix entry at (x, y) depends only on
x y^{-1}, so the whole operator is determined by a symbol supported on the
double ball.  ``compress`` restricts an algebra element to such a symbol by
word length, ``reconstruct`` maps a truncated operator back to the algebra
by weighting the symbol with the ball-overlap kernel, and
``truncation_defect`` measures how far that round trip moves an operator.
Each reaches its truncation, radius and cap checks included, through
``groupalg._truncation`` alone.  An operator keeps the double-ball positions
of its symbol, its one lookup, so every numeric path reads the symbol as one
complex vector next to the truncation's arrays: the matrix gathers it through
the index map, and the defect and the Lip-norm norm it times 1 - K and len^s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .groupalg import (
    AlgebraElement,
    fejer_apply,
    fejer_kernel,
    format_algebra_element,
    involution,
    parse_algebra_element,
    spectral_norm,
    symbol_positions,
    _check_order,
    _truncation,
)

__all__ = [
    "ToeplitzOperator",
    "compress",
    "materialize",
    "truncated_lipnorm",
    "reconstruct",
    "dirac_commutator",
    "DefectResult",
    "truncation_defect",
    "random_selfadjoint",
    "format_toeplitz",
    "parse_toeplitz",
]


class ToeplitzOperator(AlgebraElement):
    """Ball compression of a convolution operator, stored by its symbol.

    The symbol is an algebra element supported on the double ball of the
    radius; the materialized matrix over the radius-lam ball has entry
    symbol(x y^{-1}) at position (x, y).  Arithmetic is the algebra's, and
    only operators on the same truncation combine or compare equal.  The
    element cap in force bounds the double ball that the symbol is checked against,
    and the positions found there are kept, one per symbol term.
    """

    __slots__ = ("radius", "_positions")

    def __init__(self, group, radius: int, symbol: Mapping):
        double = _truncation(group, radius).double
        super().__init__(group, symbol)
        keys = list(symbol)  # the raw keys: a zero value outside the double ball is an error too
        positions = double.positions(keys)
        outside = np.flatnonzero(positions < 0)
        if len(outside):
            z, r = keys[outside[0]], 2 * radius
            raise ValueError(f"symbol entry at {z} lies outside the double ball of radius {r}")
        self.radius = radius
        self._positions = positions[np.array([v != 0 for v in symbol.values()], dtype=bool)]

    def _vector(self) -> np.ndarray:
        """The symbol as one complex vector over the double ball, in its order."""
        vec = np.zeros(len(_truncation(self.group, self.radius).double), dtype=complex)
        vec[self._positions] = [complex(v) for v in self._coeffs.values()]
        return vec

    def is_selfadjoint(self) -> bool:
        return self.coeffs() == involution(self).coeffs()

    def _new(self, symbol: Mapping) -> "ToeplitzOperator":
        return ToeplitzOperator(self.group, self.radius, symbol)

    def _mismatch(self, other: AlgebraElement) -> Optional[str]:
        if (
            type(other) is not ToeplitzOperator
            or self.group != other.group
            or self.radius != other.radius
        ):
            return "operators live on different truncations"
        return None

    def __repr__(self) -> str:
        return (
            f"ToeplitzOperator({self.group.name}, radius={self.radius}, "
            f"{len(self)} symbol terms)"
        )


def compress(f: AlgebraElement, lam: int) -> ToeplitzOperator:
    """Compression of a convolution operator to the radius-lam ball.

    The symbol keeps exactly the coefficients of f on the double ball, the
    terms of word length at most 2 lam, found with no lookup after the radius
    and the element cap, which bounds the double ball, are checked.
    """
    _truncation(f.group, lam)
    symbol = {g: v for g, v in f.items() if f.group.length(g) <= 2 * lam}
    return ToeplitzOperator(f.group, lam, symbol)


def materialize(T: ToeplitzOperator) -> np.ndarray:
    """Dense matrix of the truncated operator over the ball's element order."""
    return T._vector()[symbol_positions(T.group, T.radius)]


def truncated_lipnorm(T: ToeplitzOperator, s: int = 1) -> float:
    """Exact Lipschitz seminorm of a truncated operator: the norm of its symbol times len^s.

    Above the Lanczos crossover of ``spectral_norm`` it is an attained Rayleigh
    quotient, converged to a relative residual of 1e-14.
    """
    _check_order(s)
    trunc = _truncation(T.group, T.radius)
    return spectral_norm((T._vector() * trunc.finite_weights(s))[trunc.index_map])


def reconstruct(T: ToeplitzOperator) -> AlgebraElement:
    """Map a truncated operator back to the algebra with overlap weights.

    Each symbol coefficient is scaled by the exact kernel value at its group
    element; together with ``compress`` this realizes the two unital
    completely positive maps whose composite is the kernel multiplier.
    """
    return fejer_apply(T, T.radius)


def dirac_commutator(T: ToeplitzOperator) -> np.ndarray:
    """Commutator of the compressed length multiplier with the operator.

    Entry (x, y) equals (len(x) - len(y)) * symbol(x y^{-1}).  Its norm is the
    naive commutator seminorm, which degenerates on symbols supported at the
    far edge of the double ball and is therefore not used as a Lip-norm.
    """
    trunc = _truncation(T.group, T.radius)
    lengths = trunc.lengths[: trunc.size].astype(float)
    M = materialize(T)
    return lengths[:, None] * M - M * lengths[None, :]


@dataclass(frozen=True)
class DefectResult:
    """Distance from a truncated operator to its round-tripped reconstruction."""

    defect_norm: float
    lipnorm: float
    ratio: float


def truncation_defect(T: ToeplitzOperator, s: int = 1) -> DefectResult:
    """Norm of T minus compress(reconstruct(T)), absolute and per unit Lip-norm.

    The round trip rescales the symbol by the kernel K, so the defect is the norm of
    the symbol vector times 1 - K.  Scalar operators are rejected, their Lip-norm
    vanishes and the ratio is undefined.
    """
    ident = T.group.identity()
    if all(z == ident for z in T.support):
        raise ValueError("defect ratio is undefined for scalar operators")
    kern = fejer_kernel(T.group, T.radius)
    defect = spectral_norm((T._vector() * kern.defect)[kern.index_map])
    lip = truncated_lipnorm(T, s)
    return DefectResult(defect_norm=defect, lipnorm=lip, ratio=defect / lip)


def random_selfadjoint(group, lam: int, rng: np.random.Generator) -> ToeplitzOperator:
    """Random self-adjoint truncated operator with Gaussian symbol entries.

    Each inverse pair of the double ball, in BFS order of its first element z,
    draws one real normal if z is self-inverse, else two, re and im, for
    (re + i im) / sqrt(2) at z and its conjugate at z^{-1}.
    """
    trunc = _truncation(group, lam)
    double, inverse = trunc.double, trunc.inverse
    lead = np.flatnonzero(np.arange(len(double)) <= inverse)
    pair = inverse[lead] != lead
    draws = rng.standard_normal(len(lead) + int(pair.sum()))
    first = np.cumsum(1 + pair) - (1 + pair)
    # re and im are divided one by one, as complex(re, im) / sqrt(2) does; numpy's complex
    # array over a real scalar would round some entries differently.
    values = np.empty(len(lead), dtype=complex)
    values.real = np.where(pair, draws[first] / np.sqrt(2), draws[first])
    values.imag = np.where(pair, draws[first + pair] / np.sqrt(2), 0.0)
    keys = np.stack([lead, inverse[lead]], axis=1).ravel().tolist()
    vals = np.stack([values, np.where(pair, values.conj(), values)], axis=1).ravel().tolist()
    return ToeplitzOperator(group, lam, dict(zip(map(tuple, double.coords[keys].tolist()), vals)))


def format_toeplitz(T: ToeplitzOperator, exact: bool = False) -> str:
    """Symbol file format: a ``lambda <radius>`` header, then coefficient lines."""
    return f"lambda {T.radius}\n" + format_algebra_element(T, exact)


def parse_toeplitz(text: str, group) -> ToeplitzOperator:
    """Parse the symbol file format produced by :func:`format_toeplitz`."""
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] != "lambda" or len(parts) != 2:
            raise ValueError(f"line {lineno}: expected header 'lambda <radius>'")
        try:
            radius = int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: bad radius {parts[1]!r}") from None
        # Blank lines stand in for the header and everything above it, so
        # errors in the coefficient lines name the file's own line numbers.
        body = parse_algebra_element("\n" * lineno + "\n".join(lines[lineno:]), group)
        return ToeplitzOperator(group, radius, body.coeffs())
    raise ValueError("missing 'lambda <radius>' header")
