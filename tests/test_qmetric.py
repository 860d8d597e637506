"""State spaces, the seminorm-induced distance, and epsilon searches."""

import math

import numpy as np
import pytest

from spectrunc import (
    FreeAbelian,
    Heisenberg,
    SearchParams,
    SolverParams,
    ToeplitzOperator,
    ball,
    compress,
    delta,
    density_state,
    epsilon_full,
    epsilon_truncated,
    fejer_apply,
    fejer_kernel,
    gh_bound,
    group_from_key,
    l1_norm,
    lip_distance,
    materialize,
    qmetric,
    random_density_state,
    random_element,
    random_selfadjoint,
    random_vector_state,
    spectral_norm,
    state_eval,
    truncated_lipnorm,
    unit,
    vector_state,
    word_length,
)

from oracles import Cyclic, brute_distance, quadratic_form, random_psd

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
H3 = Heisenberg()

INV_SQRT2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# state construction and evaluation


def test_vector_state_normalizes():
    # (3, 4) / 5 at 0 and 1: <v, E_z v> is 1 at z = 0 and 0.6 * 0.8 at z = +-1
    phi = vector_state(Z1, {(0,): 3.0, (1,): 4.0}, lam=1)
    moments = phi.moments[ball(Z1, 2).positions([(0,), (1,), (-1,), (2,), (-2,)])]
    assert np.abs(moments - [1.0, 0.48, 0.48, 0.0, 0.0]).max() < 1e-15


@pytest.mark.parametrize("group", [Z1, Z2, H3, Cyclic(4)], ids=lambda g: g.name)
def test_moments_are_one_at_e_and_hermitian(group):
    rng = np.random.default_rng(49)
    for lam in (1, 2):
        double = ball(group, 2 * lam)
        inverse = double.positions(group.inverse_array(double.coords))
        for make in (random_vector_state, random_density_state):
            t = make(group, lam, rng).moments
            assert t.shape == (len(double),)
            assert abs(t[double.positions([group.identity()])[0]] - 1.0) < 1e-12
            assert np.abs(t[inverse] - t.conj()).max() < 1e-12


def test_vector_state_rejects_zero_and_out_of_ball():
    with pytest.raises(ValueError):
        vector_state(Z1, {(0,): 0.0}, lam=1)
    with pytest.raises(ValueError):
        vector_state(Z1, {(5,): 1.0}, lam=2)


def test_density_state_validation():
    n = len(ball(Z1, 1))
    good = np.eye(n) / n
    density_state(Z1, good, 1)
    with pytest.raises(ValueError):
        density_state(Z1, np.eye(n), 1)  # trace n, not 1
    bad_h = good.astype(complex).copy()
    bad_h[0, 1] = 0.5
    with pytest.raises(ValueError):
        density_state(Z1, bad_h, 1)
    neg = np.diag([1.5, -0.5, 0.0])
    with pytest.raises(ValueError):
        density_state(Z1, neg, 1)
    with pytest.raises(ValueError):
        density_state(Z1, np.eye(2) / 2, 1)


def test_state_eval_truncated_examples():
    phi = vector_state(Z2, {(0, 0): 1.0}, lam=1)
    T = compress(delta(Z2, (1, 0), 3.0) + delta(Z2, (0, 0), 2.0), 1)
    assert state_eval(phi, T) == 2.0
    n = len(ball(Z2, 1))
    rho = density_state(Z2, np.eye(n) / n, 1)
    assert abs(state_eval(rho, compress(unit(Z2), 1)) - 1.0) < 1e-14


def test_state_eval_is_positive_and_unital():
    rng = np.random.default_rng(40)
    for mk in (random_vector_state, random_density_state):
        st = mk(Z2, 1, rng)
        assert abs(state_eval(st, compress(unit(Z2), 1)) - 1.0) < 1e-12
        val = state_eval(st, random_psd(Z2, 1, rng))
        assert val.real >= -1e-12
        assert abs(val.imag) < 1e-12


@pytest.mark.parametrize("group", [Z2, H3], ids=lambda g: g.name)
def test_state_eval_matches_the_matrix_forms(group):
    # vector states give <v, M v> and density states trace(rho M), on the ball's element order
    rng = np.random.default_rng(48)
    lam = 2
    for _ in range(3):
        elements = ball(group, lam).elements
        v = rng.standard_normal(len(elements)) + 1j * rng.standard_normal(len(elements))
        v /= np.linalg.norm(v)
        A = rng.standard_normal((len(v), len(v))) + 1j * rng.standard_normal((len(v), len(v)))
        rho = A @ A.conj().T / np.trace(A @ A.conj().T).real
        phi = vector_state(group, dict(zip(elements, v)), lam)
        dens = density_state(group, rho, lam)
        for T in (random_selfadjoint(group, lam, rng), random_psd(group, lam, rng)):
            M = materialize(T)
            for got, want in ((state_eval(phi, T), np.vdot(v, M @ v)),
                              (state_eval(dens, T), np.trace(rho @ M))):
                assert abs(got - want) <= 1e-12 * abs(want)


def test_states_reject_a_radius_below_one():
    with pytest.raises(ValueError, match="truncation radius must be at least 1, got 0"):
        vector_state(Z1, {(0,): 1}, lam=0)
    with pytest.raises(ValueError, match="truncation radius must be at least 1, got 0"):
        density_state(Z1, np.eye(1), 0)


def test_state_eval_domain_mismatches():
    trunc = vector_state(Z1, {(0,): 1.0}, lam=1)
    with pytest.raises(ValueError):
        state_eval(trunc, unit(Z1))
    with pytest.raises(ValueError):
        state_eval(trunc, compress(unit(Z1), 2))
    with pytest.raises(ValueError):
        state_eval(trunc, compress(unit(Z2), 1))
    with pytest.raises(TypeError):
        state_eval(trunc, 3.0)


# ---------------------------------------------------------------------------
# distance solver


def _named_pair():
    phi = vector_state(Z1, {(0,): 1.0, (1,): 1.0}, lam=1)
    psi = vector_state(Z1, {(0,): 1.0}, lam=1)
    return phi, psi


def test_distance_named_instance_value():
    # the optimum is attained on the symmetric two-sided shift direction,
    # where the star-graph norm sqrt(2) forces the value 1/sqrt(2)
    phi, psi = _named_pair()
    res = lip_distance(phi, psi, s=1, lam=1)
    assert res.value >= INV_SQRT2 - 1e-8
    assert abs(res.value - INV_SQRT2) < 1e-9
    assert abs(res.upper - INV_SQRT2) < 1e-9
    assert res.status == "converged"


def test_distance_witness_is_feasible_and_attains_value():
    phi, psi = _named_pair()
    res = lip_distance(phi, psi, s=1, lam=1)
    w = res.witness
    assert w.is_selfadjoint()
    assert truncated_lipnorm(w, 1) <= 1.0 + 1e-9
    attained = (state_eval(phi, w) - state_eval(psi, w)).real
    assert abs(attained - res.value) < 1e-10


def test_distance_matches_brute_oracle_on_named_instance():
    phi, psi = _named_pair()
    res = lip_distance(phi, psi, s=1, lam=1)
    oracle = brute_distance(phi, psi, s=1, lam=1)
    assert abs(res.value - oracle) <= 1e-4
    assert oracle <= res.upper + 1e-9


def test_distance_symmetry_and_self_distance():
    rng = np.random.default_rng(41)
    for _ in range(5):
        phi = random_vector_state(Z1, 1, rng)
        psi = random_density_state(Z1, 1, rng)
        d1 = lip_distance(phi, psi, s=1, lam=1).value
        d2 = lip_distance(psi, phi, s=1, lam=1).value
        assert abs(d1 - d2) < 1e-9
        assert lip_distance(phi, phi, s=1, lam=1).value <= 1e-8


def test_distance_zero_difference_short_circuits():
    phi = vector_state(Z1, {(0,): 1.0}, lam=1)
    res = lip_distance(phi, phi, s=1, lam=1)
    assert res.value == 0.0 and res.upper == 0.0
    assert len(res.witness.support) == 0
    assert res.status == "converged"


def test_distance_agrees_with_oracle_on_random_pairs():
    rng = np.random.default_rng(42)
    for _ in range(6):
        phi = random_vector_state(Z1, 1, rng)
        psi = random_vector_state(Z1, 1, rng)
        res = lip_distance(phi, psi, s=1, lam=1)
        want = brute_distance(phi, psi, s=1, lam=1)
        assert abs(res.value - want) <= 1e-4
        assert want <= res.upper + 1e-9


def test_distance_matches_oracle_with_an_element_of_order_two():
    # on Z/4 at lambda 1 the double ball holds the pair {1, 3} and the
    # self-inverse 2, whose parameter pair reaches the symbol only as 2 Re(zeta)
    group = Cyclic(4)
    rng = np.random.default_rng(48)
    for _ in range(3):
        phi = random_vector_state(group, 1, rng)
        psi = random_density_state(group, 1, rng)
        res = lip_distance(phi, psi, s=1, lam=1)
        oracle = brute_distance(phi, psi, s=1, lam=1)
        assert abs(res.value - oracle) <= 1e-4
        assert oracle <= res.upper + 1e-9
        assert res.witness.is_selfadjoint()
        assert truncated_lipnorm(res.witness, 1) <= 1.0 + 1e-9


def test_distance_triangle_inequality_via_oracle():
    rng = np.random.default_rng(43)
    for _ in range(4):
        a = random_vector_state(Z1, 1, rng)
        b = random_vector_state(Z1, 1, rng)
        c = random_density_state(Z1, 1, rng)
        dab = brute_distance(a, b, s=1, lam=1)
        dbc = brute_distance(b, c, s=1, lam=1)
        dac = brute_distance(a, c, s=1, lam=1)
        assert dac <= dab + dbc + 2e-4


def test_distance_validates_domains():
    phi = vector_state(Z1, {(0,): 1.0}, lam=1)
    chi = vector_state(Z1, {(0,): 1.0}, lam=2)
    with pytest.raises(ValueError):
        lip_distance(phi, chi, s=1, lam=1)
    other = vector_state(Z2, {(0, 0): 1.0}, lam=1)
    with pytest.raises(ValueError):
        lip_distance(phi, other, s=1, lam=1)


def test_brute_oracle_refuses_large_dimension():
    phi = random_vector_state(Z1, 2, np.random.default_rng(44))
    psi = random_vector_state(Z1, 2, np.random.default_rng(45))
    with pytest.raises(ValueError):
        brute_distance(phi, psi, s=1, lam=2)


def test_solver_deterministic():
    phi, psi = _named_pair()
    p = SolverParams(max_iters=500)
    a = lip_distance(phi, psi, s=1, lam=1, params=p)
    b = lip_distance(phi, psi, s=1, lam=1, params=p)
    assert (a.value, a.upper) == (b.value, b.upper)


def _distance_mix_pairs(seed):
    """(group key, lam, s, kind, phi, psi) drawn as the benchmark's distance mix draws them."""
    rng = np.random.default_rng(seed)
    for key, lam, s in (("z:2", 2, 1), ("heisenberg", 1, 2), ("z:1", 4, 2)):
        group = group_from_key(key)
        for kind, make in (("vector", random_vector_state), ("density", random_density_state)):
            yield key, lam, s, kind, make(group, lam, rng), make(group, lam, rng)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distance_bracket_holds_and_the_witness_attains_the_lower_end(seed):
    # a fifth of the default budget: plain ADMM needs all 2,000 steps for the
    # seed-2 Heisenberg vector pair
    for key, lam, s, kind, phi, psi in _distance_mix_pairs(seed):
        res = lip_distance(phi, psi, s, lam, SolverParams(max_iters=400))
        assert res.status == "converged", (key, kind)
        assert 0 < res.value <= res.upper, (key, kind)
        assert res.upper - res.value <= 1e-9 * res.upper, (key, kind)
        assert truncated_lipnorm(res.witness, s) <= 1.0 + 1e-9
        reached = (state_eval(phi, res.witness) - state_eval(psi, res.witness)).real
        assert abs(reached - res.value) <= 1e-9


def test_distance_closes_the_gap_on_a_pair_that_defeats_ratio_ascent():
    # a multi-start subgradient ascent on the ratio c.x / ||D(x)|| reaches
    # 0.375983 here with 32 starts of 400 steps, and 0.467114 with 128 of 3,000
    key, lam, s, kind, phi, psi = list(_distance_mix_pairs(0))[4]
    assert (key, lam, s, kind) == ("z:1", 4, 2, "vector")
    res = lip_distance(phi, psi, s, lam)
    assert res.status == "converged"
    assert res.value >= 0.4973
    assert res.upper - res.value <= 1e-9 * res.upper


def test_distance_stopped_at_the_iteration_cap_still_brackets(monkeypatch):
    # the budget ends before the first gap check (1, 5), between two (15, 17)
    # and on a rejected Anderson candidate (15, the 15th evaluation); each
    # evaluation is one eigh, so the budget bounds the eigh calls
    key, lam, s, kind, phi, psi = list(_distance_mix_pairs(0))[4]
    full = lip_distance(phi, psi, s, lam)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(qmetric.np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    for budget in (1, 5, 15, 17, 60):
        calls.clear()
        res = lip_distance(phi, psi, s, lam, SolverParams(max_iters=budget))
        assert 1 <= len(calls) <= budget
        assert res.status == "iteration-cap"
        assert 0 <= res.value <= full.value and full.upper <= res.upper
        assert truncated_lipnorm(res.witness, s) <= 1.0 + 1e-9
        reached = (state_eval(phi, res.witness) - state_eval(psi, res.witness)).real
        assert abs(reached - res.value) <= 1e-9


def test_distance_converges_on_a_pair_plain_admm_leaves_at_the_cap():
    # plain ADMM stops at the 2,000-step cap here with a relative gap of 9e-6
    rng = np.random.default_rng(42)
    phi, psi = random_vector_state(Z2, 4, rng), random_vector_state(Z2, 4, rng)
    res = lip_distance(phi, psi, 1, 4)
    assert res.status == "converged"
    assert res.upper - res.value <= 1e-9 * res.upper


def test_state_proximity_under_smoothing():
    # for the unit vector xi of a vector state, phi(f) = <xi, f xi>, so
    # |phi(f) - phi(Ff)| is bounded by the l1 mass of the defect, and that
    # mass is bounded by epsilon times the length-weighted l1 mass of f
    rng = np.random.default_rng(47)
    for grp, lam in ((Z2, 3), (H3, 2)):
        kern = fejer_kernel(grp, lam)
        eps = float(kern.folner_epsilon)
        for _ in range(5):
            xi = {g: complex(*rng.standard_normal(2)) for g in ball(grp, 2)}
            norm = math.sqrt(sum(abs(v) ** 2 for v in xi.values()))
            xi = {g: v / norm for g, v in xi.items()}
            f = random_element(grp, 3, rng)
            gap = abs(quadratic_form(f, xi) - quadratic_form(fejer_apply(f, lam), xi))
            l1_defect = l1_norm(f - fejer_apply(f, lam))
            weighted = sum(
                word_length(grp, g) * abs(complex(v)) for g, v in f.items()
            )
            assert gap <= l1_defect + 1e-12
            assert l1_defect <= eps * weighted + 1e-12


# ---------------------------------------------------------------------------
# epsilon searches


def test_epsilon_truncated_exact_floor_on_z():
    # on Z the worst basis direction is the single step: (1 - F(1)) / 1; at
    # lam 1 the ascent runs one start
    for lam, search in ((1, SearchParams(starts=1, seed=3)), (2, None), (4, None), (8, None)):
        assert epsilon_truncated(Z1, lam, 2, search=search) >= 1 / (2 * lam + 1) - 1e-12


@pytest.mark.parametrize("group, lam, s", [(Z1, 2, 2), (Z2, 2, 2), (H3, 3, 3), (Z1, 8, 16)],
                         ids=["z1", "z2", "heis", "z1-s16"])
def test_sign_witness_is_attained_by_its_symbol(group, lam, s):
    # the two symbols r p and p, rebuilt as operators and normed by materialize and
    # spectral_norm, reproduce the witness's ratio; at s = 16 the weights reach 16^16 = 2^64
    value, p = qmetric._sign_witness(group, lam, s)
    kern, double = fejer_kernel(group, lam), ball(group, 2 * lam)
    assert len(p) == len(double) - 1
    terms = list(zip(double.elements[1:], double.lengths[1:], p))
    r_p = {z: float(1 - kern(z)) / n**s * v for z, n, v in terms}
    norms = [spectral_norm(materialize(ToeplitzOperator(group, lam, sym)))
             for sym in (r_p, {z: v for z, _, v in terms})]
    assert norms[0] / norms[1] == pytest.approx(value, rel=1e-9)
    assert value > epsilon_full(group, lam, s)


@pytest.mark.parametrize("lam", range(1, 9))
def test_sign_witness_stays_under_the_exact_constant_on_z_at_first_order(lam):
    # at s = 1 on Z the truncated constant is exactly 1 / (2 lam + 1), the basis floor
    value = qmetric._sign_witness(Z1, lam, 1)[0]
    assert value <= (1 + 1e-12) / (2 * lam + 1)
    assert epsilon_truncated(Z1, lam, 1) == pytest.approx(1 / (2 * lam + 1), rel=1e-12)


@pytest.mark.parametrize("group, s", [(Z1, 2), (Z2, 2), (H3, 3)], ids=["z1", "z2", "heis"])
@pytest.mark.parametrize("lam", [1, 2, 3])
def test_sign_witness_score_is_the_ratio_of_the_top_singular_values(group, lam, s):
    # the witness norms its real stack with no pencil; the ascent's singular-pair solve of
    # the search weights W gathered at the point p / len^s gives the same ratio
    value, p = qmetric._sign_witness(group, lam, s)
    trunc, W = qmetric._epsilon_pencils(group, lam, s)
    lengths = ball(group, 2 * lam).lengths_at(np.arange(1, len(p) + 1))
    sym = np.zeros((2, len(p) + 1), dtype=complex)
    sym[:, 1:] = p / lengths**s * W
    sn, sd = qmetric._top_singular(sym[:, trunc.index_map])[0]
    assert value == pytest.approx(sn / sd, rel=1e-12)


@pytest.mark.parametrize("group, lam, s", [(Z1, 2, 2), (Z2, 2, 2), (H3, 1, 3)], ids=["z1", "z2", "heis"])
def test_a_search_without_starts_never_enters_the_ascent(monkeypatch, group, lam, s):
    want = max(epsilon_full(group, lam, s), qmetric._sign_witness(group, lam, s)[0])

    def entered(*args):
        raise AssertionError("the ascent or its pencils ran without starts")

    monkeypatch.setattr(qmetric, "_two_norm_ascent", entered)
    monkeypatch.setattr(qmetric, "_epsilon_pencils", entered)
    assert epsilon_truncated(group, lam, s, SearchParams()) == want
    assert epsilon_truncated(group, lam, s) == want


def test_sign_witness_radius_stops_where_a_finite_group_stops_growing():
    # the balls of Z/7 stop at 7 elements, under 4 times the 5 of radius 2, so only the
    # growth check ends the search for the witness's radius
    assert epsilon_truncated(Cyclic(7), 2, 2) >= epsilon_full(Cyclic(7), 2, 2)


def test_epsilon_full_at_least_basis_floor():
    for grp, lam, search in ((Z1, 1, SearchParams(starts=1, seed=2)), (Z1, 2, None), (Z2, 2, None)):
        kern = fejer_kernel(grp, lam)
        floor = max(
            float(1 - v) / word_length(grp, z) ** 2
            for z, v in kern.values.items()
            if z != grp.identity()
        )
        assert epsilon_full(grp, lam, 2, search=search) >= floor - 1e-12


@pytest.mark.parametrize("group", [Z1, Z2, H3], ids=lambda g: g.name)
@pytest.mark.parametrize("lam", [1, 2, 3])
def test_epsilon_full_is_the_folner_epsilon(group, lam):
    # epsilon_full returns the Folner epsilon, which is the best basis
    # direction because 1 - K(x) <= len(x) * eps with equality at the generators
    kern = fejer_kernel(group, lam)
    for s in (1, 2, 3):
        floor = max(
            (1 - v) / word_length(group, z) ** s
            for z, v in kern.values.items()
            if z != group.identity()
        )
        assert epsilon_full(group, lam, s) == float(floor)


@pytest.mark.parametrize(
    "solve",
    [
        lambda s: epsilon_full(Z1, 2, s),
        lambda s: epsilon_truncated(Z1, 2, s),
        lambda s: lip_distance(*_named_pair(), s=s, lam=1),
        lambda s: brute_distance(*_named_pair(), s=s, lam=1),
    ],
    ids=["epsilon_full", "epsilon_truncated", "lip_distance", "brute_distance"],
)
@pytest.mark.parametrize("s", [0, -1])
def test_derivative_order_below_one_is_rejected(solve, s):
    with pytest.raises(ValueError, match="derivative order"):
        solve(s)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: SearchParams(starts=-1), "starts must be nonnegative, got -1"),
        (lambda: SearchParams(max_iters=-1), "max_iters must be nonnegative, got -1"),
        (lambda: SearchParams(seed=-1), "seed must be nonnegative, got -1"),
        (lambda: SolverParams(max_iters=0), "max_iters must be at least 1, got 0"),
        (lambda: SolverParams(tol=0.0), "tol must be finite and positive, got 0.0"),
        (lambda: SolverParams(max_iters=2.5), "config key 'max_iters' must be of type int, got 2.5"),
        (lambda: SolverParams(max_iters=True), "config key 'max_iters' must be of type int, got True"),
        (lambda: SearchParams(starts=True), "config key 'starts' must be of type int, got True"),
        (lambda: SearchParams(seed=1.5), "config key 'seed' must be of type int, got 1.5"),
    ],
)
def test_search_and_solver_budgets_are_checked(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_the_smallest_budgets_are_accepted():
    assert SearchParams(starts=0, max_iters=0, seed=0).starts == 0
    assert SolverParams(max_iters=1, tol=5e-324).max_iters == 1


def test_epsilon_searches_deterministic():
    p = SearchParams(seed=5, starts=3, max_iters=60)
    assert epsilon_full(Z1, 2, 2, search=p) == epsilon_full(Z1, 2, 2, search=p)
    assert epsilon_truncated(Z1, 2, 2, search=p) == epsilon_truncated(
        Z1, 2, 2, search=p
    )


def test_epsilon_decreases_along_doubling_radii():
    p = SearchParams(starts=4, max_iters=80)
    fulls = [epsilon_full(Z1, lam, 2, search=p) for lam in (2, 4, 8)]
    truncs = [epsilon_truncated(Z1, lam, 2, search=p) for lam in (2, 4, 8)]
    assert fulls[0] > fulls[1] > fulls[2]
    assert truncs[0] > truncs[1] > truncs[2]
    assert fulls[2] <= fulls[0] / 2
    assert truncs[2] <= truncs[0] / 2


def test_gh_bound_is_twice_the_worse_constant():
    assert gh_bound(0.1, 0.2) == 0.4
    assert gh_bound(0.3, 0.2) == 0.6
