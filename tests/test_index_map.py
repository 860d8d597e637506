"""The truncation index map against dense references built entry by entry.

The references are the direct constructions: ``oracles.dense_matrix``, which
reads each entry's symbol by the scalar law, one dense matrix per basis direction,
and pencil contractions with ``tensordot``/``einsum``.  The index-map path
must give bit-equal matrices; its gradients sum in another order and must
agree to 1e-12 relative.  Stacked calls, which the lockstep ascents make,
must agree with the same references row by row; the top-pair solver must
also hold on repeated, balanced, zero, rank-one and 1x1 matrices, and the
epsilon ascent must agree with a per-start reference that runs its starts one
after another.  Balls and maps built from the array group law must equal a BFS
and a map built with the scalar law.  The overlap counts taken along central
fibers must equal the map's bincount, also where fibers are not intervals,
a truncation whose map is built first must bincount it, and a group that
declares no central coordinate must count through the map.  A truncation's
position sums must be the adjoint of its gather, and a real stack must sum
to exactly the real part of the complex path.
"""

import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spectrunc import (
    AlgebraElement,
    FreeAbelian,
    Heisenberg,
    ResourceCapError,
    ball,
    compress,
    delta,
    element_cap,
    epsilon_full,
    epsilon_truncated,
    fejer_kernel,
    growth_report,
    materialize,
    opnorm,
    random_element,
    random_selfadjoint,
    vector_state,
    word_length,
)
from spectrunc import cayley, groupalg, qmetric
from spectrunc.groupalg import spectral_norm, symbol_positions
from spectrunc.qmetric import (
    SearchParams,
    _distance_setup,
    _epsilon_pencils,
    _norms_and_grads,
    _top_singular,
    _two_norm_ascent,
)

from oracles import Cyclic, EvenPlane, ScalarHeisenberg, ball_overlap, dense_matrix

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
H = Heisenberg()

PENCIL_CASES = [(Z1, 2), (Z2, 1), (H, 1)]


def _dense_epsilon_stacks(group, lam, s, radius):
    kern = fejer_kernel(group, lam)
    ident = group.identity()
    num, den = [], []
    for z in ball(group, 2 * lam).elements:
        if z == ident:
            continue
        base = dense_matrix(group, radius, {z: 1.0})
        wnum = float(1 - kern.values[z])
        wden = float(word_length(group, z) ** s)
        num += [wnum * base, 1j * wnum * base]
        den += [wden * base, 1j * wden * base]
    return np.array(num), np.array(den)


def _unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _assert_pencil_matches(pencil, mats, rng):
    for _ in range(3):
        x = rng.standard_normal(len(mats))
        assert np.array_equal(pencil(x), np.tensordot(x, mats, axes=1))
        n = mats.shape[1]
        u, v = _unit(rng, n), _unit(rng, n)
        ref = np.real(np.einsum("i,kij,j->k", u.conj(), mats, v))
        got = pencil.grad(u, v)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("group,lam", PENCIL_CASES)
def test_epsilon_pencils_match_dense_stacks(group, lam):
    rng = np.random.default_rng(7)
    s = 2
    num, den = _epsilon_pencils(group, lam, s)
    ref_num, ref_den = _dense_epsilon_stacks(group, lam, s, lam)
    _assert_pencil_matches(num, ref_num, rng)
    _assert_pencil_matches(den, ref_den, rng)


# Z/4 at lambda 1 adds 2, an element of order two, which the inverse table maps to itself
@pytest.mark.parametrize("group,lam", PENCIL_CASES + [(Cyclic(4), 1)])
def test_distance_setup_reads_lengths_and_inverses_off_the_double_ball(group, lam):
    # phi - psi has -1/2 at the entries (e, g) and (g, e), which read g^-1 and g, of length 1
    e, g = ball(group, lam).elements[:2]
    phi = vector_state(group, {e: 1.0}, lam)
    psi = vector_state(group, {e: 1.0, g: 1.0}, lam)
    elements = ball(group, 2 * lam).elements
    want = np.zeros(len(elements))
    want[[elements.index(g), elements.index(group.inverse(g))]] = -0.5
    for s in (1, 2):
        trunc, weight, t = _distance_setup(phi, psi, s, lam)
        idx, inverse = trunc.index_map, trunc.inverse
        assert np.array_equal(idx, symbol_positions(group, lam))
        assert elements[0] == group.identity() and weight[0] == 0
        assert weight.tolist() == [float(word_length(group, z) ** s) for z in elements]
        assert np.array_equal(inverse[inverse], np.arange(len(elements)))
        assert [elements[i] for i in inverse] == [group.inverse(z) for z in elements]
        assert np.allclose(t, want, rtol=0, atol=1e-15)


def _case_pencils(group, lam):
    """(pencil, dense stack) for every pencil the solvers build on one case."""
    s = 2
    num, den = _epsilon_pencils(group, lam, s)
    ref_num, ref_den = _dense_epsilon_stacks(group, lam, s, lam)
    return [(num, ref_num), (den, ref_den)]


def _assert_rel_close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("group,lam", PENCIL_CASES)
def test_stacked_pencil_and_grad_match_dense_rows(group, lam):
    rng = np.random.default_rng(9)
    for pencil, mats in _case_pencils(group, lam):
        m, n = mats.shape[:2]
        X = rng.standard_normal((5, m))
        U = np.array([_unit(rng, n) for _ in range(5)])
        V = np.array([_unit(rng, n) for _ in range(5)])
        stack, grads = pencil(X), pencil.grad(U, V)
        assert stack.shape == (5, n, n) and grads.shape == (5, m)
        for b in range(5):
            _assert_rel_close(stack[b], np.tensordot(X[b], mats, axes=1))
            _assert_rel_close(grads[b], np.real(np.einsum("i,kij,j->k", U[b].conj(), mats, V[b])))


@pytest.mark.parametrize("group,lam", PENCIL_CASES)
def test_stacked_top_singular_matches_spectral_norm(group, lam):
    rng = np.random.default_rng(10)
    for pencil, mats in _case_pencils(group, lam):
        M = pencil(rng.standard_normal((4, len(mats))))
        sigma, u, v = _top_singular(M)
        for b in range(4):
            assert abs(sigma[b] - spectral_norm(M[b])) <= 1e-12 * sigma[b]
            assert abs(np.vdot(u[b], M[b] @ v[b]).real - sigma[b]) <= 1e-12 * sigma[b]


def _edge_stacks():
    """Stacks of the cases a top-pair solver gets wrong first, Hermitian ones among them."""
    rng = np.random.default_rng(12)
    n = 5
    unitary = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    repeated = np.diag([2.0, 2.0, 1.0, 0.5, 0.0]).astype(complex)
    balanced = unitary @ np.diag([3.0, -3.0, 1.0, 0.0, -0.5]) @ unitary.conj().T
    balanced = (balanced + balanced.conj().T) / 2
    rank_one = np.outer(rng.standard_normal(n), rng.standard_normal(n) + 1j)
    zero = np.zeros((n, n), dtype=complex)
    general = [3 * unitary, repeated, balanced, rank_one, zero]
    hermitian = [repeated, balanced, -repeated, np.outer(rank_one[0], rank_one[0].conj()), zero]
    single = [np.array([[-2.5 + 1j]]), np.zeros((1, 1), dtype=complex)]
    return [np.array(m) for m in (general, hermitian, single, np.real(single).astype(complex))]


@pytest.mark.parametrize("case", range(4))
def test_top_singular_on_repeated_balanced_zero_rank_one_and_scalar_matrices(case):
    M = _edge_stacks()[case]
    sigma, u, v = _top_singular(M)
    assert np.all(np.isfinite(sigma)) and np.all(np.isfinite(u)) and np.all(np.isfinite(v))
    for b in range(len(M)):
        want = spectral_norm(M[b])
        if want == 0:
            assert sigma[b] == 0
        else:
            assert abs(sigma[b] - want) <= 1e-12 * want
        assert abs(np.linalg.norm(u[b]) - 1) <= 1e-12
        assert abs(np.linalg.norm(v[b]) - 1) <= 1e-12
        assert abs(np.vdot(u[b], M[b] @ v[b]).real - sigma[b]) <= 1e-12 * max(sigma[b], 1.0)


def test_stack_is_solved_in_chunks_under_the_byte_size(monkeypatch):
    rng = np.random.default_rng(11)
    pencil = _case_pencils(H, 1)[-1][0]
    X = rng.standard_normal((7, pencil.size))
    whole = _norms_and_grads([pencil], X)
    n = pencil.trunc.size
    solved = []

    def counted(M):
        solved.append(len(M))
        return _top_singular(M)

    monkeypatch.setattr(qmetric, "_STACK_BYTES", 3 * 16 * n * n)
    monkeypatch.setattr(qmetric, "_top_singular", counted)
    chunked = _norms_and_grads([pencil], X)
    assert solved == [3, 3, 1]
    for got, want in zip(chunked, whole):
        _assert_rel_close(got, want)


def test_two_pencils_share_each_chunked_stack_under_the_byte_size(monkeypatch):
    rng = np.random.default_rng(13)
    num, den = _epsilon_pencils(H, 1, 2)
    X = rng.standard_normal((7, num.size))
    whole = _norms_and_grads([num, den], X)
    n = num.trunc.size
    solved = []

    def counted(M):
        solved.append(M.nbytes)
        return _top_singular(M)

    monkeypatch.setattr(qmetric, "_STACK_BYTES", 5 * 16 * n * n)
    monkeypatch.setattr(qmetric, "_top_singular", counted)
    chunked = _norms_and_grads([num, den], X)
    assert solved == [4 * 16 * n * n] * 3 + [2 * 16 * n * n]
    assert max(solved) <= qmetric._STACK_BYTES
    for got, want in zip(chunked, whole):
        _assert_rel_close(got, want)
    for k, pencil in enumerate((num, den)):
        alone = _norms_and_grads([pencil], X)
        _assert_rel_close(whole[0][k], alone[0][0])
        _assert_rel_close(whole[1][k], alone[1][0])


def _reference_two_norm(num, den, params):
    """Best value of the epsilon ascent run one start after another."""
    rng = np.random.default_rng(params.seed)
    best_val = 0.0
    for _ in range(params.starts):
        x = rng.standard_normal(num.size)
        x /= np.linalg.norm(x)
        local_best, stall = -math.inf, 0
        for t in range(params.max_iters + 1):
            (sn,), un, vn = _top_singular(num(x)[None])
            (sd,), ud, vd = _top_singular(den(x)[None])
            val = sn / sd if sd > 0 else 0.0
            if val > local_best * (1 + 1e-12):
                local_best, stall = val, 0
            else:
                stall += 1
                if stall > 30:
                    break
            if sn == 0 or sd == 0 or t == params.max_iters:
                break
            grad = num.grad(un[0], vn[0]) / sn - den.grad(ud[0], vd[0]) / sd
            if np.linalg.norm(grad) < 1e-14:
                break
            x = x + qmetric._STEP0 / (1.0 + qmetric._STEP_DECAY * t) * grad / np.linalg.norm(grad)
            x = x / np.linalg.norm(x)
        best_val = max(best_val, local_best)
    return best_val


@pytest.mark.parametrize("group,lam", PENCIL_CASES)
def test_ascents_return_a_point_that_attains_their_value(group, lam):
    # budgets long enough that some starts leave the stack while others improve
    for seed in range(3):
        num, den = _epsilon_pencils(group, lam, 2)
        val, x = _two_norm_ascent(num, den, SearchParams(starts=3, seed=seed))
        assert abs(val - spectral_norm(num(x)) / spectral_norm(den(x))) <= 1e-12 * val


@pytest.mark.parametrize("group,lam", PENCIL_CASES)
def test_lockstep_ascents_match_a_per_start_reference(group, lam):
    # lockstep and per-start runs sum in different orders, so the paths agree
    # to rounding rather than bit for bit
    for seed in range(3):
        search = SearchParams(starts=4, max_iters=60, seed=seed)
        num, den = _epsilon_pencils(group, lam, 2)
        got, want = _two_norm_ascent(num, den, search)[0], _reference_two_norm(num, den, search)
        assert abs(got - want) <= 1e-9 * want


@pytest.mark.parametrize("group,lam", PENCIL_CASES)
def test_epsilon_floor_is_the_best_basis_direction(group, lam):
    kern = fejer_kernel(group, lam)
    ident = group.identity()
    floor = max(
        float(1 - kern.values[z]) / word_length(group, z) ** 3
        for z in ball(group, 2 * lam).elements
        if z != ident
    )
    assert epsilon_full(group, lam, 3) == floor


CENTRAL_GROUPS = [Z1, Z2, FreeAbelian(3), H, EvenPlane()]


@pytest.mark.parametrize("group", CENTRAL_GROUPS, ids=lambda g: g.name)
def test_fiber_counts_equal_the_map_bincount(group, monkeypatch):
    # a kernel counts along fibers; a truncation whose map is built first bincounts the map
    fibers, counted = groupalg._fiber_counts, []

    def counting(b, double):
        counted.append(len(b))
        return fibers(b, double)

    monkeypatch.setattr(groupalg, "_fiber_counts", counting)
    monkeypatch.setattr(groupalg, "_TRUNCATIONS", {})
    for lam in range(1, 7):
        kern = fejer_kernel(group, lam)
        assert "index_map" not in vars(kern)
        mapped = groupalg.Truncation(group, lam)
        want = np.bincount(mapped.index_map.ravel(), minlength=len(mapped.double))
        assert np.array_equal(fibers(mapped.ball, mapped.double), want)
        assert np.array_equal(kern.counts, want) and np.array_equal(mapped.counts, want)
    assert counted == [len(ball(group, lam)) for lam in range(1, 7)]


SUMS_GROUPS = [Z1, Z2, FreeAbelian(3), H]


@pytest.mark.parametrize("group", SUMS_GROUPS, ids=lambda g: g.name)
def test_sums_are_the_adjoint_of_the_gather(group):
    rng = np.random.default_rng(14)
    for lam in (1, 2, 3):
        trunc = groupalg._truncation(group, lam)
        idx, slots = trunc.index_map, len(trunc.double)
        W = rng.standard_normal((2, *idx.shape)) + 1j * rng.standard_normal((2, *idx.shape))
        S = rng.standard_normal((2, slots)) + 1j * rng.standard_normal((2, slots))
        sums = trunc.sums(W)
        assert sums.shape == (2, slots)
        for b in range(2):
            want = np.vdot(S[b][idx], W[b])
            assert np.array_equal(sums[b], trunc.sums(W[b]))
            assert abs(np.vdot(S[b], sums[b]) - want) <= 1e-12 * np.sum(np.abs(S[b][idx] * W[b]))
        # a real stack sums to exactly the real part of the complex path
        real = trunc.sums(W.real)
        assert real.dtype == float and np.array_equal(real, sums.real)


def test_a_group_without_a_central_coordinate_counts_through_the_map(monkeypatch):
    def refuse(b, double):
        raise AssertionError("the fiber count ran on a group that does not declare it")

    monkeypatch.setattr(groupalg, "_fiber_counts", refuse)
    monkeypatch.setattr(groupalg, "_TRUNCATIONS", {})
    for lam in (1, 2):
        kern = fejer_kernel(Cyclic(4), lam)
        assert kern.size == len(ball(Cyclic(4), lam))
        assert kern.values == {
            x: Fraction(ball_overlap(Cyclic(4), x, lam), kern.size)
            for x in ball(Cyclic(4), 2 * lam).elements
        }


@pytest.mark.parametrize("chunk_bytes", [1, 10_000])
def test_chunked_products_match_one_chunk(chunk_bytes, monkeypatch):
    # at 10,000 bytes the radius-3 map takes 8 chunks of 7 rows, the kernel's fibers 6
    # chunks and the radius-5 scan one row per chunk; at 1 byte every loop takes one row
    f = random_element(H, 3, np.random.default_rng(5))
    want = (symbol_positions(H, 3), fejer_kernel(H, 3).counts, opnorm(f, tol=1e-300, r_max=5))
    monkeypatch.setattr(groupalg, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(groupalg, "_TRUNCATIONS", {})
    got = (symbol_positions(H, 3), fejer_kernel(H, 3).counts, opnorm(f, tol=1e-300, r_max=5))
    assert got[0] is not want[0] and np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2] and got[2].last_radius == 5


@pytest.mark.parametrize(
    "group,lam",
    [(H, 1), (H, 2), (H, 3), (Z2, 1), (Z2, 2), (Z2, 3), (Z2, 4)]
    + [(g, lam) for g in (Z1, FreeAbelian(3), EvenPlane()) for lam in (1, 2, 3)],
)
def test_kernel_counts_equal_ball_overlaps(group, lam):
    kern = fejer_kernel(group, lam)
    size = len(ball(group, lam))
    double = ball(group, 2 * lam)
    assert list(kern.values) == list(double.elements)
    for x in double.elements:
        assert kern.values[x] == Fraction(ball_overlap(group, x, lam), size)
    assert kern.folner_epsilon == max(
        Fraction(size - ball_overlap(group, g, lam), size) for g in group.generators
    )


@pytest.mark.parametrize("group,radius", [(Z1, 3), (Z2, 2), (H, 2)])
def test_compress_rep_matches_dense_matrix(group, radius):
    f = random_element(group, 2 * radius + 1, np.random.default_rng(radius))
    assert np.array_equal(materialize(compress(f, radius)), dense_matrix(group, radius, f.coeffs()))


def test_compress_rep_drops_support_outside_the_double_ball():
    inside = AlgebraElement(Z1, {(1,): 2.0, (-2,): 0.5j})
    f = inside + delta(Z1, (5,), 3.0) + delta(Z1, (-3,), 1.0) + delta(Z1, (2**64,), 1.0)
    assert np.array_equal(materialize(compress(f, 1)), materialize(compress(inside, 1)))
    assert np.array_equal(materialize(compress(f, 1)), dense_matrix(Z1, 1, f.coeffs()))


def test_index_map_is_shared_and_read_only(monkeypatch):
    idx = symbol_positions(H, 2)
    assert idx is symbol_positions(H, 2)
    assert idx.dtype == np.int32 and idx.shape == (17, 17)
    with pytest.raises(ValueError):
        idx[0, 0] = 1
    # the kernel, both pencils, the distance setup and random_selfadjoint read the same arrays
    trunc = groupalg._truncation(H, 2)
    kern = fejer_kernel(H, 2)
    num, den = _epsilon_pencils(H, 2, 3)
    phi = vector_state(H, {(0, 0, 0): 1.0}, 2)
    psi = vector_state(H, {(1, 0, 0): 1.0}, 2)
    setup = _distance_setup(phi, psi, 3, 2)[0]
    assert kern is trunc and trunc.index_map is idx
    assert num.trunc is trunc and den.trunc is trunc and setup is trunc
    assert num.trunc.index_map is idx and setup.index_map is idx
    for arr in (trunc.index_map, trunc.inverse, trunc.lengths, trunc.counts):
        with pytest.raises(ValueError):
            arr[0] = 0
    calls = []
    positions = cayley.Ball.positions

    def counted(self, elements):
        calls.append(len(self))
        return positions(self, elements)

    monkeypatch.setattr(cayley.Ball, "positions", counted)
    random_selfadjoint(H, 2, np.random.default_rng(3))
    # one lookup, the operator's membership check: the inverse table is not looked up again
    assert calls == [len(trunc.double)]


def test_the_kernel_of_a_central_group_builds_no_index_map(monkeypatch):
    monkeypatch.setattr(groupalg, "_TRUNCATIONS", {})
    kern = fejer_kernel(H, 3)
    assert kern is groupalg._truncation(H, 3)
    assert "counts" in vars(kern) and "index_map" not in vars(kern)


def test_double_ball_leads_every_larger_double_ball():
    small, large = ball(H, 4), ball(H, 8)
    assert large.elements[: len(small)] == small.elements


def test_cap_is_checked_before_the_cache():
    fejer_kernel(Z1, 3)
    with element_cap(3), pytest.raises(ResourceCapError):
        fejer_kernel(Z1, 3)
    symbol_positions(Z1, 3)
    with element_cap(3), pytest.raises(ResourceCapError):
        symbol_positions(Z1, 3)


def test_the_cap_bounds_the_double_ball_of_a_map_and_a_compression():
    f = random_element(H, 2, np.random.default_rng(16))
    assert (len(ball(H, 2)), len(ball(H, 4))) == (17, 135)
    for cap in (17, 134):
        with element_cap(cap), pytest.raises(ResourceCapError, match="radius 4"):
            symbol_positions(H, 2)
        with element_cap(cap), pytest.raises(ResourceCapError, match="radius 4"):
            materialize(compress(f, 2))
    with element_cap(135):
        capped_map, capped_rep = symbol_positions(H, 2), materialize(compress(f, 2))
    assert capped_map is symbol_positions(H, 2)
    assert np.array_equal(capped_rep, materialize(compress(f, 2)))


# ---------------------------------------------------------------------------
# the array group law against the scalar one


def _scalar_ball(group, radius):
    """(elements, lengths) from a BFS over the scalar law, each sphere sorted."""
    elements, lengths = [group.identity()], [0]
    seen = set(elements)
    frontier = list(elements)
    for depth in range(1, radius + 1):
        grown = {group.multiply(g, s) for g in frontier for s in group.generators} - seen
        frontier = sorted(grown)
        seen |= grown
        elements += frontier
        lengths += [depth] * len(frontier)
    return tuple(elements), tuple(lengths)


def _scalar_index_map(group, radius):
    elements = _scalar_ball(group, radius)[0]
    pos = {z: i for i, z in enumerate(_scalar_ball(group, 2 * radius)[0])}
    inverses = [group.inverse(y) for y in elements]
    return np.array([[pos[group.multiply(x, yi)] for yi in inverses] for x in elements])


ARRAY_GROUPS = [Z1, Z2, FreeAbelian(3), H]


@pytest.mark.parametrize("group", ARRAY_GROUPS, ids=lambda g: g.name)
def test_balls_and_maps_equal_the_scalar_law(group):
    for radius in range(7):
        b = ball(group, radius)
        assert (b.elements, b.lengths) == _scalar_ball(group, radius)
        assert all(type(c) is int for c in b.elements[-1]) and type(b.lengths[-1]) is int
        assert type(b.length_of(b.elements[-1])) is int
        assert type(word_length(group, b.elements[-1])) is int
        assert np.array_equal(b.coords, np.array(b.elements))
        if radius:  # a truncation has radius at least 1
            assert np.array_equal(symbol_positions(group, radius), _scalar_index_map(group, radius))
    with pytest.raises(ValueError, match="truncation radius must be at least 1, got 0"):
        symbol_positions(group, 0)


def test_array_law_matches_the_scalar_law():
    rng = np.random.default_rng(12)
    for group in ARRAY_GROUPS:
        g, h = rng.integers(-9, 10, size=(2, 50, len(group.identity())))
        prods = group.multiply_array(g, h)
        invs = group.inverse_array(g)
        for a, b, p, q in zip(g.tolist(), h.tolist(), prods.tolist(), invs.tolist()):
            assert tuple(p) == group.multiply(tuple(a), tuple(b))
            assert tuple(q) == group.inverse(tuple(a))


def test_packed_keys_keep_row_order_and_refuse_to_wrap():
    rng = np.random.default_rng(13)
    rows = rng.integers(-50, 50, size=(200, 3))
    keys = cayley._pack(rows, cayley._packing(rows))
    assert sorted(map(tuple, rows.tolist())) == [tuple(r) for r in rows[np.argsort(keys)].tolist()]
    widest = np.array([[0], [2**63 - 1]])
    assert cayley._pack(widest, cayley._packing(widest)).tolist() == [0, 2**63 - 1]
    with pytest.raises(ResourceCapError, match="64-bit"):
        cayley._packing(np.array([[0, 0], [2**32, 2**31]]))


def test_each_ball_builds_one_position_finder(monkeypatch):
    built = []
    finder = cayley._position_finder

    def counting(coords):
        built.append(len(coords))
        return finder(coords)

    monkeypatch.setattr(cayley, "_position_finder", counting)
    group = ScalarHeisenberg()
    b = ball(group, 2)
    for _ in range(3):
        assert b.positions(b.elements).tolist() == list(range(len(b)))
    for _ in range(2):
        symbol_positions(group, 2)
        opnorm(random_element(group, 2, np.random.default_rng(15)), r_max=4)
    # ball sizes grow strictly, so a size names its ball
    assert len(built) == len(set(built))
    assert {len(b), len(ball(group, 4))} <= set(built) <= {len(ball(group, r)) for r in range(5)}


def test_threads_share_one_enumeration():
    group = ScalarHeisenberg()
    radii = list(range(6)) * 4
    np.random.default_rng(14).shuffle(radii)
    errors = []

    def work(chunk):
        try:
            for r in chunk:
                ball(group, r)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(radii[i::6],)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert cayley._ENUMERATIONS[group].sizes == [len(ball(H, r)) for r in range(6)]
    for r in range(6):
        assert ball(group, r).elements == ball(H, r).elements


def test_threads_share_one_truncation(monkeypatch):
    monkeypatch.setattr(groupalg, "_TRUNCATIONS", {})
    start = threading.Barrier(6, timeout=60)
    seen = []

    def read():
        start.wait()
        seen.append((fejer_kernel(H, 3), symbol_positions(H, 3), groupalg._truncation(H, 3)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 6 and not any(t.is_alive() for t in threads)
    kern, idx = seen[0][:2]
    assert all(k is kern and i is idx and t is kern for k, i, t in seen)
    assert list(groupalg._TRUNCATIONS.values()) == [kern]


def test_growth_report_keeps_no_element_tuples(monkeypatch):
    monkeypatch.setattr(cayley, "_BALL_CACHE", {})
    monkeypatch.setattr(cayley, "_ENUMERATIONS", {})
    tracemalloc.start()
    try:
        report = growth_report(H, 24)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ball_sizes[-1] == len(ball(H, 24))
    # the coordinates alone take 24 B per element (3 int64), 4.3 MB at radius 24;
    # tuple copies of every ball's elements and lengths would keep about 33 MB
    assert kept <= 8e6


@pytest.mark.parametrize("group", [H, ScalarHeisenberg()], ids=["fibers", "index-map"])
def test_counts_lookups_and_walks_build_no_element_tuples(group, monkeypatch):
    monkeypatch.setattr(cayley, "_BALL_CACHE", {})
    monkeypatch.setattr(cayley, "_ENUMERATIONS", {})
    monkeypatch.setattr(groupalg, "_TRUNCATIONS", {})
    b = ball(group, 4)
    assert len(b) == len(b.coords) == 135
    assert b.positions(b.coords[::-1]).tolist() == list(range(len(b)))[::-1]
    assert b.positions([(1, 2, 3), (99, 0, 0)]).tolist()[1] == -1
    assert (1, 1, 0) in b and b.length_of((1, 1, 0)) == 2
    assert word_length(group, (0, 0, 9)) == 12
    growth_report(group, 6)
    symbol_positions(group, 2)
    kern = fejer_kernel(group, 3)
    assert kern((1, 0, 0)) == Fraction(int(kern.counts_at([(1, 0, 0)])[0]), kern.size)
    f = random_element(group, 2, np.random.default_rng(16))
    opnorm(f, r_max=5)
    epsilon_truncated(group, 2, 3)
    random_selfadjoint(group, 3, np.random.default_rng(17))
    tuples = {"elements", "lengths"}
    assert [r for (_, r), b in cayley._BALL_CACHE.items() if tuples & vars(b).keys()] == []


def test_concurrent_first_reads_of_tuples_agree_with_the_scalar_bfs():
    group = ScalarHeisenberg()
    b = ball(group, 5)
    start = threading.Barrier(6)
    seen = []

    def read():
        start.wait()
        seen.append((b.elements, b.lengths))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 6 and all(pair == _scalar_ball(H, 5) for pair in seen)
