"""State spaces, Lip-norm distances, and truncation error estimates.

States evaluate algebra elements (full side) or truncated operators
(compressed side).  The distance between two states is the supremum of their
difference over the self-adjoint unit ball of the Lipschitz seminorm; because
the seminorm on a truncation is a finite matrix norm, the supremum is a dual
norm evaluation and is approached by normalized ratio ascent, with an
exhaustive grid oracle available in low dimension.  Bridge quantities couple
an algebra element to a truncated operator through the reconstruction map,
and the epsilon searches probe the two Lipschitz approximation constants that
drive the quantitative convergence bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Mapping, Optional

import numpy as np

from .cayley import ball, word_length
from .groupalg import (
    AlgebraElement,
    delta,
    derivative,
    fejer_apply,
    fejer_kernel,
    opnorm,
    spectral_norm,
    symbol_positions,
)
from .truncation import (
    ToeplitzOperator,
    compress,
    materialize,
    reconstruct,
    truncated_lipnorm,
)

__all__ = [
    "State",
    "vector_state",
    "density_state",
    "state_eval",
    "SolverParams",
    "DistanceResult",
    "lip_distance",
    "brute_distance",
    "bridge_norm",
    "combined_lipnorm",
    "BridgeSpec",
    "SearchParams",
    "epsilon_full",
    "epsilon_truncated",
    "gh_bound",
    "random_vector_state",
    "random_density_state",
]


class State:
    """A state on the full algebra (lam None) or on a truncation (lam set).

    Vector states hold a unit l2 coefficient dictionary; density states hold
    a positive trace-one matrix over the ball's element order.
    """

    __slots__ = ("group", "kind", "lam", "vector", "rho")

    def __init__(self, group, kind: str, lam: Optional[int], vector=None, rho=None):
        self.group = group
        self.kind = kind
        self.lam = lam
        self.vector = vector
        self.rho = rho

    def __repr__(self) -> str:
        where = "full" if self.lam is None else f"lam={self.lam}"
        return f"State({self.group.name}, {self.kind}, {where})"


def vector_state(group, coeffs: Mapping, lam: Optional[int] = None) -> State:
    """Unit vector state from a finitely supported coefficient dictionary.

    The vector is normalized in l2.  For a truncated state the support must
    lie inside the radius-lam ball.
    """
    clean = {}
    for g, v in coeffs.items():
        group.validate(g)
        if v != 0:
            clean[g] = complex(v)
    if not clean:
        raise ValueError("a vector state needs a nonzero vector")
    if lam is not None:
        b = ball(group, lam)
        for g in clean:
            if g not in b:
                raise ValueError(f"support element {g} is outside the radius-{lam} ball")
    norm = math.sqrt(sum(abs(v) ** 2 for v in clean.values()))
    return State(group, "vector", lam, vector={g: v / norm for g, v in clean.items()})


def density_state(group, rho: np.ndarray, lam: int, tol: float = 1e-10) -> State:
    """Density-matrix state over the radius-lam ball."""
    b = ball(group, lam)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (len(b), len(b)):
        raise ValueError(f"density matrix must be {len(b)}x{len(b)} for radius {lam}")
    if not np.allclose(rho, rho.conj().T, atol=tol):
        raise ValueError("density matrix must be Hermitian")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -tol:
        raise ValueError(f"density matrix has a negative eigenvalue {eigs.min():.3e}")
    if abs(eigs.sum() - 1.0) > max(tol, 1e-8):
        raise ValueError(f"density matrix trace is {eigs.sum():.12g}, expected 1")
    return State(group, "density", lam, rho=rho)


def _truncated_vector(state: State, lam: int) -> np.ndarray:
    b = ball(state.group, lam)
    v = np.zeros(len(b), dtype=complex)
    for g, c in state.vector.items():
        v[b.index[g]] = c
    return v


def state_eval(state: State, a):
    """Evaluate a state on an algebra element or a truncated operator."""
    if isinstance(a, AlgebraElement):
        if state.lam is not None:
            raise ValueError("a truncated state cannot evaluate a full algebra element")
        if a.group != state.group:
            raise ValueError("state and element live on different groups")
        grp = state.group
        mul, inv = grp.multiply, grp.inverse
        xi = state.vector
        total = 0.0 + 0.0j
        for x, vx in xi.items():
            acc = 0.0 + 0.0j
            for z, az in a.items():
                y = mul(inv(z), x)
                vy = xi.get(y)
                if vy is not None:
                    acc += complex(az) * vy
            total += vx.conjugate() * acc
        return total
    if isinstance(a, ToeplitzOperator):
        if state.lam is None:
            raise ValueError("a full state cannot evaluate a truncated operator")
        if a.group != state.group or a.radius != state.lam:
            raise ValueError("state and operator live on different truncations")
        M = materialize(a)
        if state.kind == "vector":
            v = _truncated_vector(state, state.lam)
            return complex(np.vdot(v, M @ v))
        return complex(np.trace(state.rho @ M))
    raise TypeError(f"cannot evaluate a state on {type(a).__name__}")


def random_vector_state(group, lam: int, rng: np.random.Generator) -> State:
    b = ball(group, lam)
    coeffs = {}
    for g in b.elements:
        re, im = rng.standard_normal(2)
        coeffs[g] = complex(re, im)
    return vector_state(group, coeffs, lam=lam)


def random_density_state(group, lam: int, rng: np.random.Generator) -> State:
    n = len(ball(group, lam))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    return density_state(group, rho, lam)


# ---------------------------------------------------------------------------
# distance solver


@dataclass(frozen=True)
class SolverParams:
    """Knobs for the normalized ratio ascent used by :func:`lip_distance`."""

    starts: int = 32
    max_iters: int = 400
    step0: float = 0.3
    step_decay: float = 0.05
    tol: float = 1e-9
    seed: int = 0


@dataclass(frozen=True)
class DistanceResult:
    value: float
    witness: ToeplitzOperator
    status: str
    oracle_gap: Optional[float] = None


def _selfadjoint_basis(group, lam: int) -> list[dict]:
    """Real basis of self-adjoint symbols with no identity component."""
    double = ball(group, 2 * lam)
    inv = group.inverse
    ident = group.identity()
    seen = set()
    basis: list[dict] = []
    for z in double.elements:
        if z == ident or z in seen:
            continue
        zi = inv(z)
        seen.add(z)
        seen.add(zi)
        if z == zi:
            basis.append({z: 1.0})
        else:
            basis.append({z: 1.0, zi: 1.0})
            basis.append({z: 1.0j, zi: -1.0j})
    return basis


class _Pencil:
    """Matrix pencil x -> sum_k x_k M_k of compressions to one ball.

    Row k of ``coef`` is the symbol of M_k over the leading positions of a
    double ball in BFS order, which every larger double ball shares.  Entry
    (i, j) of M(x) is (x @ coef)[idx[i, j]], and zero where the index map
    points past the symbol.
    """

    def __init__(self, idx: np.ndarray, coef: np.ndarray):
        self.coef = coef
        self.idx = np.minimum(idx, coef.shape[1])
        self._flat = self.idx.ravel()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.append(x @ self.coef, 0)[self.idx]

    def grad(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Re(u^H M_k v) for every k, from u-bar v summed per symbol position."""
        w = np.outer(u.conj(), v).ravel()
        slots = self.coef.shape[1] + 1
        g = np.bincount(self._flat, w.real, slots) + 1j * np.bincount(self._flat, w.imag, slots)
        return (self.coef @ g[:-1]).real


def _selfadjoint_pencil(group, lam: int, s: int, basis: list[dict], lip_scale: float) -> _Pencil:
    """Pencil of the s-th truncated derivatives of the self-adjoint basis."""
    double = ball(group, 2 * lam)
    coef = np.zeros((len(basis), len(double)), dtype=complex)
    for k, sym in enumerate(basis):
        for z, v in sym.items():
            i = double.index[z]
            coef[k, i] = complex(v * double.lengths[i] ** s)
    return _Pencil(symbol_positions(group, lam), coef * lip_scale)


def _top_singular(M: np.ndarray, hermitian: bool):
    if hermitian:
        w, V = np.linalg.eigh(M)
        i = int(np.argmax(np.abs(w)))
        sigma = abs(w[i])
        v = V[:, i]
        u = v if w[i] >= 0 else -v
        return sigma, u, v
    U, S, Vh = np.linalg.svd(M)
    return float(S[0]), U[:, 0], Vh[0].conj()


def _ratio_ascent(c: np.ndarray, pencil: _Pencil, params: SolverParams, hermitian: bool):
    """Maximize c.x over the unit ball of x -> ||pencil(x)||.

    Works on the scale-invariant ratio c.x / ||M(x)||; every iterate yields a
    feasible point after rescaling, so the best value seen is a valid lower
    bound.  The subgradient of the matrix norm comes from a top singular pair.
    """
    m = len(c)
    cnorm = float(np.linalg.norm(c))
    rng = np.random.default_rng(params.seed)
    starts = [c / cnorm, -c / cnorm]
    while len(starts) < params.starts:
        u = rng.standard_normal(m)
        un = np.linalg.norm(u)
        if un == 0:
            continue
        starts.append(u / un)
        starts.append(-u / un)
    starts = starts[: max(params.starts, 2)]

    def ratio_and_grad(x):
        sigma, u, v = _top_singular(pencil(x), hermitian)
        val = float(c @ x) / sigma
        grad_sigma = pencil.grad(u, v)
        grad = c / sigma - (float(c @ x) / sigma**2) * grad_sigma
        return val, grad

    best_val = -math.inf
    best_x = None
    best_stalled = False
    for x0 in starts:
        x = x0.copy()
        local_best = -math.inf
        local_x = x0.copy()
        stall = 0
        stalled = False
        for t in range(params.max_iters):
            val, grad = ratio_and_grad(x)
            if val > local_best + params.tol:
                local_best = val
                local_x = x.copy()
                stall = 0
            else:
                stall += 1
                if stall > 40:
                    stalled = True
                    break
            gn = np.linalg.norm(grad)
            if gn < 1e-15:
                stalled = True
                break
            step = params.step0 / (1.0 + params.step_decay * t)
            x = x + step * grad / gn
            x /= np.linalg.norm(x)
        if local_best > best_val:
            best_val = local_best
            best_x = local_x
            best_stalled = stalled
    status = "converged" if best_stalled else "iteration-cap"
    return best_val, best_x, status


def lip_distance(
    phi: State,
    psi: State,
    s: int,
    lam: int,
    params: Optional[SolverParams] = None,
    lip_scale: float = 1.0,
) -> DistanceResult:
    """State distance induced by the truncated Lipschitz seminorm.

    Maximizes (phi - psi)(a) over self-adjoint truncated operators with
    vanishing identity symbol and seminorm at most 1.  The identity component
    carries no seminorm and no state difference, so dropping it loses
    nothing.  The reported value is always attained by the returned witness,
    hence is a certified lower bound of the supremum.
    """
    params = params or SolverParams()
    if phi.lam != lam or psi.lam != lam:
        raise ValueError("both states must live on the radius-lam truncation")
    if phi.group != psi.group:
        raise ValueError("states live on different groups")
    group = phi.group
    basis = _selfadjoint_basis(group, lam)
    ops = [ToeplitzOperator(group, lam, sym) for sym in basis]
    c = np.array(
        [(state_eval(phi, T) - state_eval(psi, T)).real for T in ops], dtype=float
    )
    zero = ToeplitzOperator(group, lam, {})
    if np.linalg.norm(c) == 0:
        return DistanceResult(value=0.0, witness=zero, status="converged")
    pencil = _selfadjoint_pencil(group, lam, s, basis, lip_scale)
    best_val, best_x, status = _ratio_ascent(c, pencil, params, hermitian=True)
    norm_at_best = spectral_norm(pencil(best_x))
    scaled = best_x / norm_at_best
    witness_symbol: dict = {}
    for xk, sym in zip(scaled, basis):
        for z, v in sym.items():
            witness_symbol[z] = witness_symbol.get(z, 0) + xk * v
    witness = ToeplitzOperator(group, lam, witness_symbol)
    return DistanceResult(value=float(c @ scaled), witness=witness, status=status)


def _sphere_point(angles: tuple[float, ...]) -> np.ndarray:
    """Hyperspherical coordinates to a unit vector."""
    m = len(angles) + 1
    x = np.ones(m)
    for i, a in enumerate(angles):
        sin_prod = x[i]
        x[i] = sin_prod * math.cos(a)
        for j in range(i + 1, m):
            x[j] *= math.sin(a)
    return x


def brute_distance(
    phi: State,
    psi: State,
    s: int,
    lam: int,
    grid: int = 24,
    lip_scale: float = 1.0,
) -> float:
    """Independent oracle for :func:`lip_distance` in up to 4 real parameters.

    Exhaustive hyperspherical grid over the symbol directions followed by
    local simplex refinement of the best candidates.  Refuses instances whose
    self-adjoint symbol space has more than 4 real dimensions.
    """
    if phi.lam != lam or psi.lam != lam:
        raise ValueError("both states must live on the radius-lam truncation")
    if phi.group != psi.group:
        raise ValueError("states live on different groups")
    group = phi.group
    basis = _selfadjoint_basis(group, lam)
    m = len(basis)
    if m > 4:
        raise ValueError(f"oracle refuses dimension {m} > 4")
    ops = [ToeplitzOperator(group, lam, sym) for sym in basis]
    c = np.array(
        [(state_eval(phi, T) - state_eval(psi, T)).real for T in ops], dtype=float
    )
    if np.linalg.norm(c) == 0:
        return 0.0
    pencil = _selfadjoint_pencil(group, lam, s, basis, lip_scale)

    def value(x: np.ndarray) -> float:
        sigma = spectral_norm(pencil(x))
        if sigma == 0:
            return -math.inf
        return float(c @ x) / sigma

    if m == 1:
        return abs(value(np.array([1.0])))

    axes = [np.linspace(0.0, math.pi, grid, endpoint=False) for _ in range(m - 2)]
    axes.append(np.linspace(0.0, 2 * math.pi, 2 * grid, endpoint=False))
    candidates = []
    for angles in product(*axes):
        x = _sphere_point(angles)
        candidates.append((value(x), x))
    candidates.sort(key=lambda t: t[0], reverse=True)

    from scipy import optimize

    best = candidates[0][0]
    for val, x0 in candidates[:8]:
        res = optimize.minimize(
            lambda x: -value(x),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-13, "maxiter": 4000},
        )
        best = max(best, -float(res.fun))
    return best


# ---------------------------------------------------------------------------
# bridge quantities


def bridge_norm(
    a: AlgebraElement,
    b: ToeplitzOperator,
    epsilon: float,
    tol: float = 1e-8,
    r_max: Optional[int] = None,
) -> float:
    """Coupling seminorm: the norm of a minus the reconstruction of b, over epsilon.

    Vanishes when b is the compression of a kernel-averaged element matching
    a, and is nonzero on pairs that merely share a seminorm, which is what
    lets the combined seminorm pin the two state spaces together.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    diff = a - reconstruct(b)
    if len(diff) == 0:
        return 0.0
    if r_max is None:
        worst = max(word_length(diff.group, g) for g in diff.support)
        r_max = max(4, min(worst + 2, 2 * b.radius + 2))
    return opnorm(diff, tol=tol, r_max=r_max).estimate / epsilon


@dataclass(frozen=True)
class BridgeSpec:
    """A truncation radius and coupling constant, with its direction maps."""

    group: object
    lam: int
    epsilon: float

    def to_truncated(self, a: AlgebraElement) -> ToeplitzOperator:
        return compress(a, self.lam)

    def to_full(self, T: ToeplitzOperator) -> AlgebraElement:
        return reconstruct(T)

    def norm(self, a: AlgebraElement, T: ToeplitzOperator, **kw) -> float:
        return bridge_norm(a, T, self.epsilon, **kw)


def combined_lipnorm(
    a: AlgebraElement,
    b: ToeplitzOperator,
    s: int,
    lam: int,
    epsilon: float,
    tol: float = 1e-8,
    r_max: int = 10,
) -> float:
    """Max of the two sided seminorms and the bridge coupling on a pair."""
    if b.radius != lam:
        raise ValueError("operator radius does not match lam")
    from .groupalg import lipnorm as full_lipnorm

    la = full_lipnorm(a, s, tol=tol, r_max=r_max)
    lb = truncated_lipnorm(b, s)
    nb = bridge_norm(a, b, epsilon, tol=tol)
    return max(la, lb, nb)


# ---------------------------------------------------------------------------
# epsilon searches


@dataclass(frozen=True)
class SearchParams:
    """Budget for the epsilon ratio searches."""

    starts: int = 6
    max_iters: int = 150
    step0: float = 0.3
    step_decay: float = 0.05
    tol: float = 1e-9
    seed: int = 0
    r_pad: int = 2
    opnorm_tol: float = 1e-8
    opnorm_rmax: Optional[int] = None


def _two_norm_ascent(num: _Pencil, den: _Pencil, params: SearchParams):
    """Multi-start ascent on the ratio of two matrix-pencil norms."""
    m = len(num.coef)
    rng = np.random.default_rng(params.seed)

    def ratio(x):
        N = spectral_norm(num(x))
        D = spectral_norm(den(x))
        return N / D if D > 0 else 0.0

    best_val = 0.0
    best_x = None
    for _ in range(params.starts):
        x = rng.standard_normal(m)
        x /= np.linalg.norm(x)
        local_best = ratio(x)
        local_x = x.copy()
        stall = 0
        for t in range(params.max_iters):
            sn, un, vn = _top_singular(num(x), hermitian=False)
            sd, ud, vd = _top_singular(den(x), hermitian=False)
            if sd == 0 or sn == 0:
                break
            grad = num.grad(un, vn) / sn - den.grad(ud, vd) / sd
            norm_grad = np.linalg.norm(grad)
            if norm_grad < 1e-14:
                break
            step = params.step0 / (1.0 + params.step_decay * t)
            x = x + step * grad / norm_grad
            x /= np.linalg.norm(x)
            val = ratio(x)
            if val > local_best * (1 + 1e-12):
                local_best = val
                local_x = x.copy()
                stall = 0
            else:
                stall += 1
                if stall > 30:
                    break
        if local_best > best_val:
            best_val = local_best
            best_x = local_x
    return best_val, best_x


def _param_pencil(idx: np.ndarray, weights: np.ndarray) -> _Pencil:
    """Pencil over (re, im) pairs of a symbol on the double ball minus the identity."""
    m = len(weights)
    k = np.arange(m)
    coef = np.zeros((2 * m, m + 1), dtype=complex)
    coef[2 * k, k + 1] = weights
    coef[2 * k + 1, k + 1] = 1j * weights
    return _Pencil(idx, coef)


def _epsilon_pencils(group, lam: int, s: int, radius: int, cap: Optional[int]):
    """Basis floor and the numerator and denominator pencils of an epsilon search.

    The numerator weights a symbol on the radius-lam double ball by one
    minus the kernel, the denominator by word length to the s-th power; both
    are compressed to the ball of ``radius``.  The floor is the best ratio
    over single basis directions, max (1 - K(z)) / len(z)^s.
    """
    kern = fejer_kernel(group, lam, cap=cap)
    double = ball(group, 2 * lam, cap=cap)
    wnum = np.array([float(1 - kern.values[z]) for z in double.elements[1:]])
    wden = np.array([float(length**s) for length in double.lengths[1:]])
    idx = symbol_positions(group, radius, cap=cap)
    floor = float(np.max(wnum / wden))
    return floor, _param_pencil(idx, wnum), _param_pencil(idx, wden)


def _element_from_params(group, x: np.ndarray, elems) -> AlgebraElement:
    coeffs = {}
    for i, z in enumerate(elems):
        v = complex(x[2 * i], x[2 * i + 1])
        if v != 0:
            coeffs[z] = v
    return AlgebraElement(group, coeffs)


def epsilon_full(
    group, lam: int, s: int, search: Optional[SearchParams] = None, cap: Optional[int] = None
) -> float:
    """Empirical Lipschitz constant of the kernel defect on the full algebra.

    Lower-bounds the best constant in ``norm(f - kernel(f)) <= eps * Lip(f)``
    by probing every nonscalar basis direction exactly and then running
    multi-start ratio ascent over complex symbols on the double ball; the
    best candidate is re-evaluated with budgeted compression norms.

    ``cap`` bounds every ball enumerated: the double ball of lam, the
    lam + r_pad ball the pencils are compressed to, and the balls of the
    re-evaluation (up to radius 2 lam by default).  A compression to the
    radius-r ball also indexes the double ball of r, which is never larger
    than the square of the capped ball.
    """
    search = search or SearchParams()
    best, num, den = _epsilon_pencils(group, lam, s, lam + search.r_pad, cap)
    _, best_x = _two_norm_ascent(num, den, search)
    if best_x is not None:
        f = _element_from_params(group, best_x, ball(group, 2 * lam, cap=cap).elements[1:])
        if len(f) > 0:
            r_max = search.opnorm_rmax if search.opnorm_rmax is not None else 2 * lam
            smooth = fejer_apply(f, lam, cap=cap)
            defect = opnorm(f - smooth, tol=search.opnorm_tol, r_max=r_max, cap=cap)
            lip = opnorm(derivative(f, s), tol=search.opnorm_tol, r_max=r_max, cap=cap)
            if lip.estimate > 0:
                best = max(best, defect.estimate / lip.estimate)
    return best


def epsilon_truncated(
    group, lam: int, s: int, search: Optional[SearchParams] = None, cap: Optional[int] = None
) -> float:
    """Empirical Lipschitz constant of the round-trip defect on the truncation.

    Same search shape as :func:`epsilon_full`, but both norms are exact
    finite matrix norms over the radius-lam ball; ``cap`` bounds that ball
    and its double ball.
    """
    search = search or SearchParams()
    best, num, den = _epsilon_pencils(group, lam, s, lam, cap)
    val, best_x = _two_norm_ascent(num, den, search)
    if best_x is not None:
        best = max(best, val)
    return best


def gh_bound(eps_full: float, eps_truncated: float) -> float:
    """Quantitative distance bound: twice the worse of the two constants."""
    return 2.0 * max(eps_full, eps_truncated)
