"""State spaces, Lip-norm distances, and truncation error estimates.

Every state lives on a truncation and is held by its moments, its values on
the compressed translations E_z by the elements z of the double ball: a unit
vector or a density matrix over the radius-lam ball is summed over the index
map once, and a truncated operator of that radius evaluates as its symbol
against the moments, with no matrix.  The distance between two states is the
supremum of their difference over the self-adjoint unit ball of the Lipschitz
seminorm; on a truncation that is a convex problem whose dual is a trace-norm
minimization over an affine set, so one ADMM solve, accelerated by
safeguarded Anderson mixing, brackets it between an attained witness value
and a dual certificate.  The solver's budget counts evaluations of the ADMM
map, one ``eigh`` each.  Of the two Lipschitz approximation constants that
drive the quantitative convergence bound, the full-algebra one is the Folner
epsilon, its exact basis floor, and the truncated one the best of that floor,
a sign witness (the sign of the defect multiplier, averaged onto symbols and
normed as one real stack) and an optional ratio ascent, run one start at a
time.  Its two pencils of ball compressions weigh one complex parameter per
double-ball element but e by 1 - K and by len^s, rows of one weight matrix
built only when the ascent has starts, and each step gathers both through
the index map as one (2, n, n) stack.  States, the distance solver, the
ascent and the witness derive no array and count or sum over no position of
their own: each gets its truncation, with its radius and cap checks, from
one ``groupalg._truncation`` call and reads its index map, inverse table,
word lengths, overlap counts and ``Truncation.sums``.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .cayley import ResourceCapError, ball
from .groupalg import (
    AlgebraElement,
    fejer_kernel,
    spectral_norm,
    l2_norm,
    _check_order,
    _gram_top,
    _start_vector,
    _truncation,
)
from .truncation import ToeplitzOperator

__all__ = [
    "State",
    "vector_state",
    "density_state",
    "state_eval",
    "SolverParams",
    "DistanceResult",
    "lip_distance",
    "SearchParams",
    "epsilon_full",
    "epsilon_truncated",
    "gh_bound",
    "random_vector_state",
    "random_density_state",
]


@dataclass(frozen=True, eq=False)
class State:
    """A state phi on the truncation to the radius-lam ball, held by its moments.

    ``moments[k]`` is phi(E_z) for the k-th element z of the double ball, where E_z, the
    compressed translation by z, has entry 1 at each (x, y) of the ball with x y^-1 = z.
    A truncated operator with symbol p then evaluates to sum_z p(z) phi(E_z).
    """

    group: object
    lam: int
    moments: np.ndarray

    def __repr__(self) -> str:
        return f"State({self.group.name}, lam={self.lam})"


def _state(trunc, W: np.ndarray) -> State:
    """The state with phi(T) = sum_ij W_ij T_ij, from the sums of W over the index map."""
    return State(trunc.group, trunc.radius, trunc.sums(W))


def vector_state(group, coeffs: Mapping, lam: int) -> State:
    """Unit vector state, normalized in l2, from coefficients supported in the radius-lam ball."""
    trunc, f = _truncation(group, lam), AlgebraElement(group, coeffs)
    if not len(f):
        raise ValueError("a vector state needs a nonzero vector")
    keys = list(f.support)
    pos = trunc.ball.positions(keys)
    outside = np.flatnonzero(pos < 0)
    if len(outside):
        raise ValueError(f"support element {keys[outside[0]]} is outside the radius-{lam} ball")
    v, norm = np.zeros(trunc.size, dtype=complex), l2_norm(f)
    v[pos] = [complex(c) / norm for c in f._coeffs.values()]
    return _state(trunc, np.outer(v.conj(), v))


_DENSITY_TOL = 1e-10  # a density matrix is Hermitian and has no eigenvalue below -this
_TRACE_TOL = 1e-8  # and its trace is 1 to this


def density_state(group, rho: np.ndarray, lam: int) -> State:
    """Density-matrix state over the radius-lam ball."""
    trunc = _truncation(group, lam)
    n, rho = trunc.size, np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError(f"density matrix must be {n}x{n} for radius {lam}")
    if not np.allclose(rho, rho.conj().T, atol=_DENSITY_TOL):
        raise ValueError("density matrix must be Hermitian")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -_DENSITY_TOL:
        raise ValueError(f"density matrix has a negative eigenvalue {eigs.min():.3e}")
    if abs(eigs.sum() - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace is {eigs.sum():.12g}, expected 1")
    return _state(trunc, rho.T)


def state_eval(state: State, a):
    """Evaluate a state on a truncated operator of its radius: its symbol against the moments."""
    if isinstance(a, ToeplitzOperator):
        if a.group != state.group or a.radius != state.lam:
            raise ValueError("state and operator live on different truncations")
        return complex(state.moments @ a._vector())
    if isinstance(a, AlgebraElement):
        raise ValueError("a truncated state cannot evaluate a full algebra element")
    raise TypeError(f"cannot evaluate a state on {type(a).__name__}")


def random_vector_state(group, lam: int, rng: np.random.Generator) -> State:
    elements = map(tuple, _truncation(group, lam).ball.coords.tolist())
    return vector_state(group, {g: complex(*rng.standard_normal(2)) for g in elements}, lam=lam)


def random_density_state(group, lam: int, rng: np.random.Generator) -> State:
    n = _truncation(group, lam).size
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    return density_state(group, rho, lam)


def _typed(key: str, value, kind):
    """A config value as ``kind``: a string is parsed, and any other value must have the kind.

    Raises ValueError on a bool, a non-integral number for an int and a non-string for a str.
    Every sweep configuration, command tuning key, solver budget and search budget is typed
    by this one rule.
    """
    if isinstance(value, str):
        return value if kind is str else kind(value)
    integral = type(value) is int or type(value) is float and value.is_integer()
    if kind is int and integral or kind is float and type(value) in (int, float):
        return kind(value)
    raise ValueError(f"config key {key!r} must be of type {kind.__name__}, got {value!r}")


# ---------------------------------------------------------------------------
# distance solver


@dataclass(frozen=True)
class SolverParams:
    """Budget and stop rule of :func:`lip_distance`.

    ``max_iters`` counts solver evaluations, one ``eigh`` each, rejected
    Anderson candidates included; ``tol`` is the relative duality gap that
    stops the solve.
    """

    max_iters: int = 2000
    tol: float = 1e-9

    def __post_init__(self):
        for key, kind in (("max_iters", int), ("tol", float)):
            object.__setattr__(self, key, _typed(key, getattr(self, key), kind))
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


@dataclass(frozen=True)
class DistanceResult:
    """value <= distance <= upper; the witness attains value.  status: converged, iteration-cap."""

    value: float
    witness: ToeplitzOperator
    status: str
    upper: float


def _top_singular(M: np.ndarray):
    """Top singular values and pairs (u, v), Re(u^H M v) = sigma, of a (B, n, n) stack.

    sigma and the top eigenvalue of H = M^H M come from ``_gram_top``, and its
    eigenvector v from one solve of (H - mu I) v = ``_start_vector`` with the
    shift mu just past that eigenvalue: inverse iteration with an accurate
    shift converges in one step.  u = M v / sigma; a zero matrix gives sigma 0
    and u = v.  Only the opt-in ascent's gradients need the pairs.
    """
    B, n = M.shape[:2]
    H, top, sigma = _gram_top(M)
    sign = np.where(top >= 0, 1.0, -1.0)
    H.reshape(B, n * n)[:, :: n + 1] -= (top + sign * (1e-12 * np.abs(top) + 1e-150))[:, None]
    v = np.linalg.solve(H, np.broadcast_to(_start_vector(n)[:, None], (B, n, 1)))[..., 0]
    v /= np.linalg.norm(v, axis=1)[:, None]
    Mv = (M @ v[..., None])[..., 0]
    u = np.divide(Mv, sigma[:, None], out=v.copy(), where=sigma[:, None] > 0)
    return sigma, u, v


# The duality gap is checked every this many solver evaluations, and Anderson
# mixing keeps this many differences of past evaluations.
_GAP_EVERY = 10
_AA_MEMORY = 10


def _trace_norm_dual(trunc, t: np.ndarray, params: SolverParams):
    """Bracket max Re sum_z p(z) t(z) over Hermitian symbols p, p(e) = 0, with ||p[idx]|| <= 1.

    idx is the truncation's index map, and p is Hermitian when p(z^-1) = conj(p(z)), z^-1 at
    position ``trunc.inverse[z]``.  The dual is min ||Y||_1 (trace norm) over Hermitian Y
    whose sum over each position z != e of the index map, g_Y(z) = ``trunc.sums(Y)``, is
    t(z).  Scaled ADMM with rho = 1 / ||Pi(0)|| solves it as a fixed-point iteration on the
    Douglas-Rachford point s = Y + U.  One evaluation is one ``eigh``: Z is s with its
    eigenvalues soft-thresholded at 1 / rho, U = s - Z, Y = Pi(Z - U) and the map's output
    is Y + U, where Pi adds (t - g_Y) / ``trunc.counts`` through the map and leaves the
    identity position alone.  Type-II Anderson mixing (Walker and Ni 2011) extrapolates the
    next point from the last ``_AA_MEMORY`` differences of the output and of the residual
    Y - Z.  As a safeguard (Zhang, O'Donoghue and Boyd 2020), a mixed point is taken only if
    its residual is no larger than the last accepted one; otherwise the plain step is taken
    and the memory cleared.  Every evaluation, rejected ones included, counts against
    ``max_iters``.  Every ``_GAP_EVERY`` evaluations, the Hermitian part of the position
    means of conj(rho U) of the accepted point, with no identity part, rescaled to norm one,
    is a feasible p and gives the lower bound; ||Y||_1 + sum_{z != e} |t(z) - g_Y(z)| is an
    upper bound, because every feasible p has |p(z)| <= 1.  Both hold at any point, so
    mixing cannot weaken them.  Returns the best p and value (p = 0 attains 0), the best
    upper bound and the status.
    """
    idx, slots = trunc.index_map, len(t)
    share = np.zeros(slots)
    share[1:] = 1.0 / trunc.counts[1:]

    def project(Y):
        return Y + ((t - trunc.sums(Y)) * share)[idx]

    start = project(np.zeros(idx.shape, dtype=complex))
    rho = 1.0 / spectral_norm(start)

    def evaluate(x):
        """Y, U, the output Y + U and the residual Y - Z as real rows, and its squared norm."""
        s = x.view(complex).reshape(idx.shape)
        mu, V = np.linalg.eigh(s)
        Z = (V * (np.sign(mu) * np.maximum(np.abs(mu) - 1.0 / rho, 0.0))) @ V.conj().T
        U = s - Z
        Y = project(Z - U)
        f = (Y - Z).ravel().view(float)
        return Y, U, (Y + U).ravel().view(float), f, f @ f

    # ring buffers of output and residual differences, and the residual differences' Gram
    dg = np.zeros((_AA_MEMORY, 2 * idx.size))
    df = np.zeros_like(dg)
    gram = np.zeros((_AA_MEMORY, _AA_MEMORY))
    held = slot = 0

    value, best, upper, status = 0.0, np.zeros(slots, dtype=complex), math.inf, "iteration-cap"
    Y, U, g, f, r = evaluate(start.ravel().view(float))
    evals, check = 1, _GAP_EVERY
    while True:
        if evals >= check or evals >= params.max_iters:
            check = evals + _GAP_EVERY
            residual = np.abs(t - trunc.sums(Y))[1:].sum()
            upper = min(upper, float(np.abs(np.linalg.eigvalsh(Y)).sum() + residual))
            q = (rho * trunc.sums(U)).conj() * share
            p = (q + q[trunc.inverse].conj()) / 2
            norm = spectral_norm(p[idx])
            if norm > 0 and (reached := float((p @ t).real) / norm) > value:
                value, best = reached, p / norm
            if upper - value <= params.tol * upper:
                status = "converged"
                break
        if evals >= params.max_iters:
            break
        x = g
        if held:
            # a relative ridge, floored so that G stays invertible if the residual stops moving
            G = gram[:held, :held].copy()
            G.flat[:: held + 1] += 1e-10 * G.diagonal().max() + 1e-300
            x = g - np.linalg.solve(G, df[:held] @ f) @ dg[:held]
        new = evaluate(x)
        evals += 1
        if held and new[4] > r:
            held = slot = 0
            if evals >= params.max_iters:
                continue  # the bounds are read at the accepted point, then the loop stops
            new = evaluate(g)
            evals += 1
        dg[slot], df[slot] = new[2] - g, new[3] - f
        gram[slot, :] = gram[:, slot] = df @ df[slot]
        slot, held = (slot + 1) % _AA_MEMORY, min(held + 1, _AA_MEMORY)
        Y, U, g, f, r = new
    return best, value, upper, status


def _distance_setup(phi: State, psi: State, s: int, lam: int):
    """The truncation, len(z)^s and t(z) per double-ball position z.

    t(z) is the states' moment difference (phi - psi)(E_z) divided by len(z)^s, so that
    (phi - psi)(a) is Re sum_z p(z) t(z) for the operator a whose derivative has symbol p.
    The identity position, of length 0, gets 0 in both.
    """
    _check_order(s)
    if phi.lam != lam or psi.lam != lam:
        raise ValueError("both states must live on the radius-lam truncation")
    if phi.group != psi.group:
        raise ValueError("states live on different groups")
    trunc, g = _truncation(phi.group, lam), phi.moments - psi.moments
    weight = trunc.weights(s)
    t = np.divide(g, weight, out=np.zeros_like(g), where=weight > 0)
    return trunc, weight, t


def lip_distance(
    phi: State,
    psi: State,
    s: int,
    lam: int,
    params: Optional[SolverParams] = None,
) -> DistanceResult:
    """State distance induced by the truncated Lipschitz seminorm, bracketed from both sides.

    Maximizes (phi - psi)(a) over self-adjoint truncated operators with
    vanishing identity symbol and seminorm at most 1.  The identity component
    carries no seminorm and no state difference, so dropping it loses
    nothing.  The states enter only through their moment difference, so
    (phi - psi)(a) is the symbol of a against it.  One ADMM solve of the
    trace-norm dual gives both ends: the reported value is attained by the
    returned witness, hence a certified lower bound, and ``upper`` is a
    certified upper bound.
    """
    params = params or SolverParams()
    trunc, weight, t = _distance_setup(phi, psi, s, lam)
    if not t.any():
        zero = ToeplitzOperator(phi.group, lam, {})
        return DistanceResult(value=0.0, witness=zero, status="converged", upper=0.0)
    p, value, upper, status = _trace_norm_dual(trunc, t, params)
    symbol = np.divide(p, weight, out=np.zeros_like(p), where=weight > 0)
    elements = map(tuple, trunc.double.coords.tolist())
    witness = ToeplitzOperator(phi.group, lam, dict(zip(elements, symbol)))
    return DistanceResult(value=value, witness=witness, status=status, upper=upper)


# ---------------------------------------------------------------------------
# epsilon constants


# Step length of the ascent at iteration t: _STEP0 / (1 + _STEP_DECAY * t).
_STEP0 = 0.3
_STEP_DECAY = 0.05


@dataclass(frozen=True)
class SearchParams:
    """Budget for the ratio ascent of :func:`epsilon_truncated`; no starts runs none."""

    starts: int = 0
    max_iters: int = 150
    seed: int = 0

    def __post_init__(self):
        for key in ("starts", "max_iters", "seed"):
            object.__setattr__(self, key, _typed(key, getattr(self, key), int))
        if self.starts < 0:
            raise ValueError(f"starts must be nonnegative, got {self.starts}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be nonnegative, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _ascend(trunc, W: np.ndarray, x: np.ndarray, max_iters: int):
    """Ratio ascent from the unit point x: its best ratio and the point that attains it.

    Complex parameter k, zeta_k = x[2k] + i x[2k+1], puts zeta_k W[:, k] at position k + 1
    of the numerator's and the denominator's symbols over the double ball, and one gather of
    both through the truncation's index map gives the (2, n, n) stack (N(x), D(x)).  Their
    top singular pairs (u, v) score x, and one ``sums`` of the two outer products conj(u) v^T
    gives both gradients, Re(u^H M_k v) for the matrix M_k of each real parameter.  A step
    goes ``_STEP0 / (1 + _STEP_DECAY t)`` along the unit gradient of log ||N|| - log ||D||.
    The ascent stops after 31 steps with no gain, when a pencil or the gradient vanishes, or
    after ``max_iters`` steps.
    """
    sym = np.zeros((2, W.shape[1] + 1), dtype=complex)
    best, best_x, stall = -math.inf, x, 0
    for t in range(max_iters + 1):
        sym[:, 1:] = x.view(complex) * W
        # an index, not take(): the stack's memory layout sets the rounding of the solves
        sigma, u, v = _top_singular(sym[:, trunc.index_map])
        sn, sd = sigma.tolist()
        val = sn / sd if sd > 0 else 0.0
        if val > best * (1 + 1e-12):
            best, best_x, stall = val, x, 0
        else:
            stall += 1
        if stall > 30 or sn == 0 or sd == 0 or t == max_iters:
            break
        g = (trunc.sums(u.conj()[:, :, None] * v[:, None, :])[:, 1:].conj() * W).view(float)
        grad = g[0] / sn - g[1] / sd
        # norms sum pairwise, as np.linalg.norm does along an axis: the ascent is chaotic in
        # rounding, so the order of these sums sets its path
        norm = math.sqrt((grad * grad).sum())
        if norm < 1e-14:
            break
        x = x + _STEP0 / (1.0 + _STEP_DECAY * t) * grad / norm
        x = x / math.sqrt((x * x).sum())
    return best, best_x


def _two_norm_ascent(trunc, W: np.ndarray, params: SearchParams):
    """Multi-start ratio ascent: ``_ascend`` from each start in turn.

    The starts are the rows of one standard normal (starts, 2m) draw from ``params.seed``,
    scaled to unit norm.  Returns the best ratio and the first point to reach it, or
    (0.0, None) when no start scores above 0.
    """
    rng = np.random.default_rng(params.seed)
    X = rng.standard_normal((params.starts, 2 * W.shape[1]))
    X /= np.linalg.norm(X, axis=1)[:, None]
    best, best_x = 0.0, None
    for x in X:
        val, at = _ascend(trunc, W, x, params.max_iters)
        if val > best:
            best, best_x = val, at
    return best, best_x


def _epsilon_pencils(group, lam: int, s: int):
    """The kernel's truncation and the (2, m) weights W of the truncated search's pencils.

    Over the double ball less e, row 0 is 1 - K(z), the weight of the round-trip defect, and
    row 1 is len(z)^s, the weight of the derivative.  ValueError if len^s overflows float64.
    """
    kern = fejer_kernel(group, lam)
    W = np.stack([kern.defect[1:], kern.finite_weights(s)[1:]])
    return kern, W


_WITNESS_GROWTH = 4  # the sign witness's ball has at most this many times lam's elements


def _sign_witness(group, lam: int, s: int):
    """The sign witness's attained ratio and its symbol p over the double ball less e.

    r = ``defect`` / len^s (0 at e), extended by len^-s past the double ball, is compressed to
    the largest radius R >= lam whose ball has at most ``_WITNESS_GROWTH`` times lam's
    elements and whose double ball fits the cap.  p averages onto each symbol the sign matrix
    of that compression shifted by its median eigenvalue, which minimizes the mean modulus.
    The dense ``_gram_top`` of the real stack (r p, p)[idx] over the kernel's map scores p
    exactly: the Lanczos of ``spectral_norm`` above n = 200 would bound its denominator below.
    """
    kern, R = fejer_kernel(group, lam), lam
    limit = _WITNESS_GROWTH * kern.size
    with suppress(ResourceCapError):  # a ball that stops growing is a whole finite group
        while len(ball(group, R)) < len(ball(group, R + 1)) <= limit:
            _truncation(group, R + 1)
            R += 1
    wide, m = _truncation(group, R), len(kern.double)
    r = np.append(kern.defect, np.ones(len(wide.double) - m)) / np.maximum(wide.weights(s), 1)
    mu, V = np.linalg.eigh(r[wide.index_map])
    sign = (V * np.sign(mu - (mu[(len(mu) - 1) // 2] + mu[len(mu) // 2]) / 2)) @ V.T
    p = np.append(0.0, wide.sums(sign)[1:m] / wide.counts[1:m])
    sn, sd = _gram_top(np.stack([r[:m] * p, p])[:, kern.index_map])[2]
    return (sn / sd if sd > 0 else 0.0), p[1:]


def epsilon_full(group, lam: int, s: int, search: Optional[SearchParams] = None) -> float:
    """Lipschitz constant of the kernel defect on the full algebra: the Folner epsilon.

    Each basis direction z attains (1 - K(z)) / len(z)^s exactly, and
    1 - K(z) <= len(z) * eps with equality at the generators, so the best
    direction is a generator for every s >= 1 and the constant is
    ``folner_epsilon``, a certified lower bound of the best constant in
    ``norm(f - kernel(f)) <= eps * Lip(f)``.  ``search`` is unused and kept
    for callers that pass one.
    """
    _check_order(s)
    return float(fejer_kernel(group, lam).folner_epsilon)


def epsilon_truncated(group, lam: int, s: int, search: Optional[SearchParams] = None) -> float:
    """Certified lower bound of the Lipschitz constant of the round-trip defect on the truncation.

    The best of three attained ratios of exact matrix norms over the radius-lam ball: the basis
    floor, ``_sign_witness`` and the ascent of ``search``, ``_ascend`` from each of its starts
    in turn.  The ascent runs only if the search has starts, so a default call builds no pencil
    weights and draws no random number.  ValueError if the ascent runs and len^s overflows
    float64; the floor and the witness divide by len^s and read 0 past it.
    """
    floor, witness = epsilon_full(group, lam, s), _sign_witness(group, lam, s)[0]
    if not (search and search.starts):
        return max(floor, witness)
    return max(floor, witness, _two_norm_ascent(*_epsilon_pencils(group, lam, s), search)[0])


def gh_bound(eps_full: float, eps_truncated: float) -> float:
    """Quantitative distance bound: twice the worse of the two constants."""
    return 2.0 * max(eps_full, eps_truncated)
