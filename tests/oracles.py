"""Scalar references that the kernel, index-map and pencil tests compare against.

Each overlap count applies the group's scalar ``multiply`` to one ball
element at a time, independently of the fiber counts and index maps the
package counts overlaps with.  The self-adjoint basis and the random self-adjoint symbol
pair each element with its inverse through the scalar ``inverse``, one
element at a time, independently of the inverse-position table the package
pairs the double ball with.  ``two_loop_growth_fit`` is the growth fit that
grows its range, lifts it to radius 4 unchecked and walks back down on the
cap, which the one-pass fit must reproduce.  ``Cyclic`` is a finite group
with elements of order two, which the built-in torsion-free groups lack;
``EvenPlane`` has a central last coordinate whose ball fibers are not
intervals, and ``ScalarHeisenberg`` is Heisenberg without the declaration.

``dense_matrix`` builds a ball compression entry by entry from the scalar
law, with no index map.  ``defect_reference`` and ``lipnorm_reference`` are
the round-trip defect and the truncated Lip-norm through the exact algebra:
the residual symbol times Fractions (|B| - #(B ∩ zB)) / |B|, and
``truncated_derivative``, the symbol times len^s through ``derivative``,
each materialized as an operator of its own.

``quadratic_form`` is <xi, f xi> by the scalar law, one support pair at a
time, for the translate-averaging identity and the smoothing bound.
``brute_distance`` cross-checks ``lip_distance`` by an exhaustive grid in
low dimension over the self-adjoint basis, reading the states through
``state_eval`` and the seminorm through dense matrices, independently of the
solver's arrays; ``averaging_check`` checks the translate-averaging identity
that makes the reconstruction completely positive, and ``random_psd`` draws
positive truncated operators for the state and positivity tests.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np
from scipy import optimize

from spectrunc import (
    DefectResult,
    FreeAbelian,
    Heisenberg,
    ResourceCapError,
    State,
    ToeplitzOperator,
    ball,
    compress,
    convolve,
    derivative,
    fejer_kernel,
    growth_report,
    involution,
    materialize,
    random_element,
    reconstruct,
    spectral_norm,
    state_eval,
    word_length,
)
from spectrunc import cayley

_Z2 = FreeAbelian(2)
_H = Heisenberg()


def quadratic_form(f, xi: Mapping) -> complex:
    """<xi, f xi>: sums conj(xi(x)) f(z) xi(z^{-1} x) with the scalar law."""
    grp = f.group
    mul = grp.multiply
    terms = [(grp.inverse(z), complex(fz)) for z, fz in f.items()]
    total = 0.0 + 0.0j
    for x, vx in xi.items():
        if vx == 0:
            continue
        acc = 0.0 + 0.0j
        for zinv, fz in terms:
            vy = xi.get(mul(zinv, x), 0)
            if vy != 0:
                acc += fz * complex(vy)
        total += complex(vx).conjugate() * acc
    return total


def dense_matrix(group, radius: int, symbol: Mapping) -> np.ndarray:
    """Ball compression with entry symbol(x y^{-1}) at (x, y), one entry at a time."""
    elements = ball(group, radius).elements
    M = np.zeros((len(elements), len(elements)), dtype=complex)
    for i, x in enumerate(elements):
        for j, y in enumerate(elements):
            M[i, j] = complex(symbol.get(group.multiply(x, group.inverse(y)), 0))
    return M


def truncated_derivative(T: ToeplitzOperator, s: int = 1) -> ToeplitzOperator:
    """Symbol-wise multiplication by word length to the s-th power, through ``derivative``."""
    return ToeplitzOperator(T.group, T.radius, derivative(T, s).coeffs())


def lipnorm_reference(T: ToeplitzOperator, s: int = 1) -> float:
    """``truncated_lipnorm`` as the norm of the materialized ``truncated_derivative``."""
    return spectral_norm(materialize(truncated_derivative(T, s)))


def defect_reference(T: ToeplitzOperator, s: int = 1) -> DefectResult:
    """``truncation_defect`` from the exact residual symbol, materialized as an operator."""
    kern = fejer_kernel(T.group, T.radius)
    counts = kern.counts_at(list(T.support)).tolist()
    residual = {z: v * Fraction(kern.size - c, kern.size) for (z, v), c in zip(T.items(), counts)}
    defect = spectral_norm(materialize(ToeplitzOperator(T.group, T.radius, residual)))
    lip = lipnorm_reference(T, s)
    return DefectResult(defect_norm=defect, lipnorm=lip, ratio=defect / lip)


def ball_overlap(group, x, radius: int) -> int:
    """Size of the intersection of the ball with its left translate by x."""
    members = set(ball(group, radius).elements)
    xi = group.inverse(x)
    return sum(group.multiply(xi, y) in members for y in members)


def folner_deficit(group, x, radius: int) -> int:
    """Number of ball elements lost under left translation by x."""
    return len(ball(group, radius)) - ball_overlap(group, x, radius)


def selfadjoint_basis(group, lam: int) -> list[dict]:
    """Self-adjoint symbols with no identity part, two per inverse pair of the double ball.

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


def two_loop_growth_fit(group):
    """The growth fit in two loops: grow the range, then back off while the cap in force stops it."""
    lam_max = 2
    try:
        while lam_max < 32 and len(ball(group, lam_max + 1)) <= 4000:
            lam_max += 1
        lam_max = max(lam_max, 4)
    except ResourceCapError:
        pass
    while True:
        try:
            report = growth_report(group, lam_max, fit_min=max(2, lam_max // 2))
            break
        except ResourceCapError:
            if lam_max <= 2:
                raise
            lam_max -= 1
    if math.isnan(report.fitted_degree):
        raise ResourceCapError(
            f"growth fit in {group.name} needs balls of radius {lam_max + 1} and more, "
            f"over the cap of {cayley._ELEMENT_CAP.get()} elements"
        )
    return report


@dataclass(frozen=True)
class Cyclic:
    """Z/order with generators 1 and -1."""

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

    def multiply_array(self, g, h):
        return (g + h) % self.order

    def inverse_array(self, g):
        return -g % self.order

    def length(self, g):
        return min(g[0], self.order - g[0])

    def validate(self, g):
        if not (isinstance(g, tuple) and len(g) == 1 and 0 <= g[0] < self.order):
            raise ValueError(f"{g!r} is not a valid element of {self.name}")


class EvenPlane:
    """Z x 2Z inside Z^2, generated by +-(1, 0) and +-(0, 2).

    Its last coordinate is central, but its ball fibers are sets of even
    numbers, not intervals, so every fiber of the overlap count is many runs.
    Instances hash by identity.
    """

    name = "z-by-2z"
    generators = ((1, 0), (-1, 0), (0, 2), (0, -2))
    central_last_coordinate = True

    def identity(self):
        return _Z2.identity()

    def multiply(self, g, h):
        return _Z2.multiply(g, h)

    def inverse(self, g):
        return _Z2.inverse(g)

    def multiply_array(self, g, h):
        return _Z2.multiply_array(g, h)

    def inverse_array(self, g):
        return _Z2.inverse_array(g)

    def length(self, g):
        return abs(g[0]) + abs(g[1]) // 2

    def validate(self, g):
        _Z2.validate(g)


class ScalarHeisenberg:
    """The Heisenberg group as a drop-in group that delegates every method.

    Instances hash by identity, so each one gets an enumeration of its own.
    """

    name = "scalar-heisenberg"
    generators = _H.generators

    def identity(self):
        return _H.identity()

    def multiply(self, g, h):
        return _H.multiply(g, h)

    def inverse(self, g):
        return _H.inverse(g)

    def multiply_array(self, g, h):
        return _H.multiply_array(g, h)

    def inverse_array(self, g):
        return _H.inverse_array(g)

    def length(self, g):
        return _H.length(g)

    def validate(self, g):
        _H.validate(g)


def brute_distance(phi: State, psi: State, s: int, lam: int) -> float:
    """Independent oracle for ``lip_distance`` in up to 4 real parameters.

    The parameters are the nonzero symbols a_k of ``selfadjoint_basis``.  A
    direction x scores c @ x / ||sum_k x_k D_k||, with c_k = Re(phi - psi)(a_k)
    from ``state_eval`` and D_k = materialize(truncated_derivative(a_k, s)).
    Exhaustive hyperspherical grid over the directions followed by local
    simplex refinement of the best candidates.  Refuses instances whose
    self-adjoint symbol space has more than 4 real dimensions.
    """
    grid = 24
    group = phi.group
    basis = [ToeplitzOperator(group, lam, sym)
             for sym in selfadjoint_basis(group, lam) if any(sym.values())]
    m = len(basis)
    if m > 4:
        raise ValueError(f"oracle refuses dimension {m} > 4")
    mats = np.array([materialize(truncated_derivative(a, s)) for a in basis])
    c = np.array([(state_eval(phi, a) - state_eval(psi, a)).real for a in basis])
    if np.linalg.norm(c) == 0:
        return 0.0

    def value(x: np.ndarray) -> float:
        sigma = spectral_norm(np.tensordot(x, mats, axes=1))
        if sigma == 0:
            return -math.inf
        return float(c @ x) / sigma

    if m == 1:
        return abs(value(np.array([1.0])))

    axes = [np.linspace(0.0, math.pi, grid, endpoint=False) for _ in range(m - 2)]
    axes.append(np.linspace(0.0, 2 * math.pi, 2 * grid, endpoint=False))
    angles = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m - 1)
    ones = np.ones((len(angles), 1))
    sines = np.concatenate([ones, np.cumprod(np.sin(angles), axis=1)], axis=1)
    points = sines * np.concatenate([np.cos(angles), ones], axis=1)
    sigma = np.max(np.abs(np.linalg.eigvalsh(np.tensordot(points, mats, axes=1))), axis=1)
    scores = np.full(len(points), -math.inf)
    np.divide(points @ c, sigma, out=scores, where=sigma > 0)
    order = np.argsort(-scores, kind="stable")

    best = float(scores[order[0]])
    for x0 in points[order[:8]]:
        res = optimize.minimize(
            lambda x: -value(x),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 4000},
        )
        best = max(best, -float(res.fun))
    return best


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

    rhs = quadratic_form(reconstruct(T), xi) * len(b)
    return abs(lhs - rhs)


def random_psd(group, lam: int, rng: np.random.Generator) -> ToeplitzOperator:
    """Random positive truncated operator, compressed from a convolution square.

    Built as the compression of g* conv g for a random g supported in the
    radius-lam ball, so the product's support already fits the double ball
    and the compression is exactly positive semidefinite.
    """
    g = random_element(group, lam, rng)
    return compress(convolve(g, involution(g)), lam)
