"""Scalar references that the kernel, index-map and pencil tests compare against.

Each overlap count applies the group's scalar ``multiply`` to one ball
element at a time, independently of the index maps the package counts
overlaps with.  The self-adjoint basis and the random self-adjoint symbol
pair each element with its inverse through the scalar ``inverse``, one
element at a time, independently of the inverse-position table the package
pairs the double ball with.  ``two_loop_growth_fit`` is the growth fit that
grows its range, lifts it to radius 4 unchecked and walks back down on the
cap, which the one-pass fit must reproduce.  ``Cyclic`` is a finite group
with elements of order two, which the built-in torsion-free groups lack.
"""

import math
from dataclasses import dataclass

import numpy as np

from spectrunc import DEFAULT_BALL_CAP, ResourceCapError, ToeplitzOperator, ball, growth_report


def ball_overlap(group, x, radius: int) -> int:
    """Size of the intersection of the ball with its left translate by x."""
    b = ball(group, radius)
    xi = group.inverse(x)
    return sum(group.multiply(xi, y) in b for y in b.elements)


def folner_deficit(group, x, radius: int) -> int:
    """Number of ball elements lost under left translation by x."""
    return len(ball(group, radius)) - ball_overlap(group, x, radius)


def selfadjoint_basis(group, lam: int) -> list[dict]:
    """One symbol per real parameter of the self-adjoint pencil, in its order.

    Each inverse pair {z, z^-1} of the double ball, taken at its first BFS
    position, gives the symbols zeta at z plus conj(zeta) at z^-1 for
    zeta = 1 and zeta = i; a self-inverse z gets 2 Re(zeta), that is 2 and 0.
    """
    ident = group.identity()
    seen = set()
    basis = []
    for z in ball(group, 2 * lam).elements:
        if z == ident or z in seen:
            continue
        zi = group.inverse(z)
        seen |= {z, zi}
        for zeta in (1, 1j):
            sym = {z: zeta}
            sym[zi] = sym.get(zi, 0) + zeta.conjugate()
            basis.append(sym)
    return basis


def random_selfadjoint(group, lam: int, rng) -> ToeplitzOperator:
    """The random self-adjoint operator drawn element by element in BFS order.

    A self-inverse element draws one real normal; any other element not yet
    paired draws re and im for (re + i im) / sqrt(2), and its inverse gets
    the conjugate.
    """
    symbol: dict = {}
    for z in ball(group, 2 * lam).elements:
        if z in symbol:
            continue
        zi = group.inverse(z)
        if z == zi:
            symbol[z] = complex(rng.standard_normal())
        else:
            re, im = rng.standard_normal(2)
            v = complex(re, im) / np.sqrt(2)
            symbol[z] = v
            symbol[zi] = v.conjugate()
    return ToeplitzOperator(group, lam, symbol)


def two_loop_growth_fit(group, cap=None):
    """The growth fit in two loops: grow the range, then back off while the cap stops the report."""
    lam_max = 2
    try:
        while lam_max < 32 and len(ball(group, lam_max + 1, cap=cap)) <= 4000:
            lam_max += 1
        lam_max = max(lam_max, 4)
    except ResourceCapError:
        pass
    while True:
        try:
            report = growth_report(group, lam_max, fit_min=max(2, lam_max // 2), cap=cap)
            break
        except ResourceCapError:
            if lam_max <= 2:
                raise
            lam_max -= 1
    if math.isnan(report.fitted_degree):
        raise ResourceCapError(
            f"growth fit in {group.name} needs balls of radius {lam_max + 1} and more, "
            f"over the cap of {DEFAULT_BALL_CAP if cap is None else cap} elements"
        )
    return report


@dataclass(frozen=True)
class Cyclic:
    """Z/order through the scalar methods only, with generators 1 and -1."""

    order: int

    @property
    def name(self) -> str:
        return f"cyclic:{self.order}"

    @property
    def generators(self):
        return ((1,), (self.order - 1,))

    def identity(self):
        return (0,)

    def multiply(self, g, h):
        return ((g[0] + h[0]) % self.order,)

    def inverse(self, g):
        return (-g[0] % self.order,)

    def validate(self, g):
        if not (isinstance(g, tuple) and len(g) == 1 and 0 <= g[0] < self.order):
            raise ValueError(f"{g!r} is not a valid element of {self.name}")
