"""Group engine tests against independent BFS and matrix-representation oracles."""

import threading

import numpy as np
import pytest
from fractions import Fraction

from spectrunc import cayley
from spectrunc import (
    DEFAULT_BALL_CAP,
    AlgebraElement,
    FreeAbelian,
    Heisenberg,
    ResourceCapError,
    ball,
    derivative,
    element_cap,
    group_from_key,
    growth_report,
    word_length,
)

from oracles import Cyclic, EvenPlane, ScalarHeisenberg, ball_overlap, folner_deficit

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
H3 = Heisenberg()


# ---------------------------------------------------------------------------
# oracles, written independently of the package internals


def _oracle_mul_abelian(g, h):
    return tuple(a + b for a, b in zip(g, h))


def _h3_to_matrix(g):
    x, y, z = g
    return np.array([[1, x, z], [0, 1, y], [0, 0, 1]], dtype=object)


def _matrix_to_h3(M):
    return (int(M[0, 1]), int(M[1, 2]), int(M[0, 2]))


def _oracle_mul_h3(g, h):
    return _matrix_to_h3(_h3_to_matrix(g) @ _h3_to_matrix(h))


def _oracle_bfs(identity, generators, mul, radius):
    """Plain dict-and-list BFS, independent of the package ball builder."""
    lengths = {identity: 0}
    frontier = [identity]
    for depth in range(1, radius + 1):
        grown = []
        for g in frontier:
            for s in generators:
                h = mul(g, s)
                if h not in lengths:
                    lengths[h] = depth
                    grown.append(h)
        frontier = grown
    return lengths


_H3_Gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]


# ---------------------------------------------------------------------------
# element arithmetic


def test_abelian_multiply_matches_addition():
    assert Z2.multiply((1, 0), (0, 1)) == (1, 1)
    assert Z2.multiply((3, -2), (-1, 5)) == (2, 3)


def test_heisenberg_multiply_matches_matrix_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        g = tuple(int(v) for v in rng.integers(-5, 6, size=3))
        h = tuple(int(v) for v in rng.integers(-5, 6, size=3))
        assert H3.multiply(g, h) == _oracle_mul_h3(g, h)


def test_heisenberg_noncommutative_pair():
    assert H3.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert H3.multiply((0, 1, 0), (1, 0, 0)) == (1, 1, 0)


def test_inverse_cancels():
    rng = np.random.default_rng(1)
    for grp in (Z1, Z2, H3):
        dim = len(grp.identity())
        for _ in range(50):
            g = tuple(int(v) for v in rng.integers(-6, 7, size=dim))
            assert grp.multiply(g, grp.inverse(g)) == grp.identity()
            assert grp.multiply(grp.inverse(g), g) == grp.identity()


def test_validate_rejects_wrong_arity():
    with pytest.raises(ValueError):
        Z2.multiply((1, 0, 0), (0, 0))
    with pytest.raises(ValueError):
        H3.validate((1, 0))
    with pytest.raises(ValueError):
        Z1.validate((0.5,))


def test_group_from_key():
    assert group_from_key("z:2") == Z2
    assert group_from_key("heisenberg") == H3
    with pytest.raises(ValueError):
        group_from_key("so:3")
    with pytest.raises(ValueError):
        group_from_key("z:x")


# ---------------------------------------------------------------------------
# balls


def test_ball_sizes_z():
    assert [len(ball(Z1, r)) for r in range(5)] == [1, 3, 5, 7, 9]


def test_ball_sizes_z2_closed_form():
    for lam in range(0, 9):
        assert len(ball(Z2, lam)) == 2 * lam * lam + 2 * lam + 1


def test_ball_size_heisenberg_radius2():
    assert len(ball(H3, 2)) == 17


def test_balls_match_oracle_bfs():
    cases = [
        (Z2, (0, 0), [tuple(g) for g in Z2.generators], _oracle_mul_abelian, 6),
        (H3, (0, 0, 0), _H3_Gens, _oracle_mul_h3, 5),
    ]
    for grp, ident, gens, mul, rmax in cases:
        oracle = _oracle_bfs(ident, gens, mul, rmax)
        for lam in range(rmax + 1):
            b = ball(grp, lam)
            want = {g for g, l in oracle.items() if l <= lam}
            assert set(b.elements) == want
            for g in b.elements:
                assert b.length_of(g) == oracle[g]


def test_ball_order_is_layered_and_lexicographic():
    for grp, lam in ((Z2, 4), (H3, 3)):
        b = ball(grp, lam)
        assert list(b.lengths) == sorted(b.lengths)
        for depth in range(lam + 1):
            layer = [g for g, l in zip(b.elements, b.lengths) if l == depth]
            assert layer == sorted(layer)


def test_ball_cap_error_names_cap():
    with pytest.raises(ResourceCapError, match="100"):
        ball(Z2, 50, cap=100)


def test_ball_cap_applies_to_a_prefix_of_a_larger_enumeration(monkeypatch):
    # a cached prefix, a prefix of a larger enumeration and a fresh enumeration that
    # stops at the cap all raise one text
    message = r"^ball of radius 4 in heisenberg exceeds the cap of 100 elements$"
    ball(H3, 6)
    with pytest.raises(ResourceCapError, match=message):
        ball(H3, 4, cap=100)
    cayley._BALL_CACHE.pop((H3, 4), None)
    with pytest.raises(ResourceCapError, match=message):
        ball(H3, 4, cap=100)
    assert len(ball(H3, 4, cap=135)) == 135
    monkeypatch.setattr(cayley, "_BALL_CACHE", {})
    monkeypatch.setattr(cayley, "_ENUMERATIONS", {})
    with pytest.raises(ResourceCapError, match=message):
        ball(H3, 4, cap=100)
    assert cayley._ENUMERATIONS[H3].sizes == [1, 5, 17, 53]


# Z^2 balls of radius 4, 5, 6 and 7 have 41, 61, 85 and 113 elements.


def test_element_cap_bounds_every_ball_in_its_block_and_is_restored_after_it():
    with element_cap(50):
        assert len(ball(Z2, 4)) == 41
        with pytest.raises(ResourceCapError, match=r"cap of 50\b"):
            ball(Z2, 5)
        assert len(ball(Z2, 5, cap=61)) == 61  # a cap given to ball overrides the one in force
    assert len(ball(Z2, 5)) == 61
    assert cayley._ELEMENT_CAP.get() == DEFAULT_BALL_CAP


def test_element_cap_is_restored_after_an_exception():
    with pytest.raises(KeyError):
        with element_cap(50):
            raise KeyError("inside")
    assert len(ball(Z2, 5)) == 61
    assert cayley._ELEMENT_CAP.get() == DEFAULT_BALL_CAP


def test_nested_element_caps_and_none_inherits_the_outer_cap():
    with element_cap(100):
        with element_cap(50):
            with pytest.raises(ResourceCapError, match=r"cap of 50\b"):
                ball(Z2, 5)
        assert len(ball(Z2, 6)) == 85
        with element_cap(None):
            assert len(ball(Z2, 6)) == 85
            with pytest.raises(ResourceCapError, match=r"cap of 100\b"):
                ball(Z2, 7)
        with element_cap(200):
            assert len(ball(Z2, 7)) == 113
    with element_cap(None):
        assert cayley._ELEMENT_CAP.get() == DEFAULT_BALL_CAP


def test_a_thread_started_in_an_element_cap_block_sees_the_default_cap():
    # a ContextVar is per context, and a new thread starts in a fresh one
    seen = []

    def enumerate_in_thread():
        seen.append((cayley._ELEMENT_CAP.get(), len(ball(Z2, 5))))

    with element_cap(50):
        thread = threading.Thread(target=enumerate_in_thread)
        thread.start()
        thread.join()
    assert seen == [(DEFAULT_BALL_CAP, 61)]


@pytest.mark.parametrize("group, radius", [(Z1, 5), (Z2, 4), (FreeAbelian(3), 3), (H3, 3)])
def test_position_lookup_reads_ball_index_or_minus_one(group, radius):
    b = ball(group, radius)
    index = dict(zip(b.elements, range(len(b))))
    rng = np.random.default_rng(radius)
    k = b.coords.shape[1]
    lo, hi = b.coords.min(axis=0), b.coords.max(axis=0)
    inside = rng.integers(lo, hi + 1, size=(300, k))  # box rows, members and not
    outside = inside.copy()  # one coordinate pushed past the box
    axis = rng.integers(0, k, 300)
    outside[np.arange(300), axis] += rng.choice([-1, 1], 300) * (hi - lo + 1)[axis]
    # rows far past the box; at +-2**62 the raw packing of two or more columns wraps modulo 2**64
    far = np.array([[2**40] * k, [2**62] * k, [-(2**62)] * k])
    rows = np.concatenate([b.coords, inside, outside, far])
    want = [index.get(tuple(r), -1) for r in rows.tolist()]
    assert b.positions(rows[:, None, :])[:, 0].tolist() == want
    assert b.positions(list(map(tuple, rows.tolist()))).tolist() == want
    assert -1 in want[len(b):] and any(w >= 0 for w in want[len(b) : len(b) + 300])
    # a finder over the bases, the ball's rows less their last coordinate, as the fiber
    # counts build it; the one base of Z^1 has no column
    bases = list(dict.fromkeys(map(tuple, b.coords[:, :-1].tolist())))
    base_index = dict(zip(bases, range(len(bases))))
    find = cayley._position_finder(np.array(bases, dtype=np.int64).reshape(len(bases), k - 1))
    assert find(rows[:, :-1]).tolist() == [base_index.get(tuple(r[:-1]), -1) for r in rows.tolist()]


@pytest.mark.parametrize(
    "group, probe",
    [
        (Z1, (4,)),  # an element outside the ball
        (H3, (0, 0, 9)),
        (Z1, (0, 0)),  # a tuple of the wrong length
        (H3, (0, 0)),
        (Z1, (10**23,)),  # coordinates past int64
        (H3, (-(2**70), 0, 0)),
        (Z1, [0]),  # not a tuple
        (Z1, 0),
        (Z1, (0.0,)),  # not integer coordinates
    ],
)
def test_a_nonmember_is_not_in_the_ball_and_has_no_length(group, probe):
    b = ball(group, 3)
    assert probe not in b
    with pytest.raises(KeyError):
        b.length_of(probe)


def test_lengths_at_rejects_a_position_outside_the_ball():
    # the -1 of a nonmember would read the identity's length 0, and a position past
    # the ball the length of a row of the larger enumerated ball
    ball(H3, 3)
    b = ball(H3, 1)
    with pytest.raises(IndexError):
        b.lengths_at([-1, 0, 4, 5, 40, 10**6])
    for bad in (-1, 5, [5], [0, -1], np.array([4, 40])):
        with pytest.raises(IndexError):
            b.lengths_at(bad)
    assert b.lengths_at(np.arange(5)).tolist() == [0, 1, 1, 1, 1]
    assert b.lengths_at(4) == 1 and b.lengths_at([]).size == 0
    big = ball(H3, 3)
    assert big.lengths_at(np.arange(len(b))).tolist() == list(b.lengths)


def test_ball_rejects_negative_radius():
    with pytest.raises(ValueError):
        ball(Z1, -1)


class ForwardLine:
    """Z generated by +1 alone, a generating set not closed under inversion."""

    name = "forward-line"
    generators = ((1,),)

    def identity(self):
        return (0,)

    def multiply_array(self, g, h):
        return g + h

    def inverse_array(self, g):
        return -g


def test_ball_rejects_a_generating_set_not_closed_under_inversion():
    group = ForwardLine()
    with pytest.raises(ValueError, match="not closed under inversion"):
        ball(group, 2)
    assert group not in cayley._ENUMERATIONS


# ---------------------------------------------------------------------------
# word length


def test_word_length_identity_and_symmetry():
    for grp in (Z1, Z2, H3):
        assert word_length(grp, grp.identity()) == 0
        b = ball(grp, 5)
        for g in b.elements:
            assert word_length(grp, g) == word_length(grp, grp.inverse(g))


def test_word_length_taxicab_on_z2():
    assert word_length(Z2, (3, -2)) == 5
    rng = np.random.default_rng(2)
    for _ in range(50):
        g = tuple(int(v) for v in rng.integers(-9, 10, size=2))
        assert word_length(Z2, g) == abs(g[0]) + abs(g[1])


def test_word_length_heisenberg_center():
    # the commutator of the two generators needs a word of length four
    assert word_length(H3, (0, 0, 1)) == 4


def test_word_length_triangle_inequality():
    rng = np.random.default_rng(3)
    for grp in (Z2, H3):
        elems = ball(grp, 4).elements
        for _ in range(60):
            g = elems[int(rng.integers(len(elems)))]
            h = elems[int(rng.integers(len(elems)))]
            lg, lh = word_length(grp, g), word_length(grp, h)
            assert word_length(grp, grp.multiply(g, h)) <= lg + lh


def test_bfs_depth_equals_word_length():
    for grp in (Z2, H3):
        b = ball(grp, 5)
        for g, depth in zip(b.elements, b.lengths):
            assert word_length(grp, g) == depth


LENGTH_CASES = [(H3, 8), (FreeAbelian(3), 4), (Cyclic(7), 5), (Z1, 6), (Z2, 6), (FreeAbelian(3), 6)]
LENGTH_CASES += [(Cyclic(4), 6), (EvenPlane(), 6), (ScalarHeisenberg(), 6)]


@pytest.mark.parametrize("group, radius", LENGTH_CASES)
def test_batched_word_lengths_equal_bfs_depths(group, radius):
    # the closed-form length of every built-in and test group against its sphere sizes
    b = ball(group, radius)
    lengths = [group.length(g) for g in b.elements]
    assert lengths == list(b.lengths)
    assert all(type(n) is int for n in lengths)


def test_heisenberg_length_is_the_bfs_depth_and_exceeds_the_radius_off_the_ball():
    b = ball(H3, 16)
    assert [H3.length(g) for g in b.elements] == list(b.lengths)
    inner = ball(H3, 12)
    lo, hi = inner.coords.min(axis=0) - 3, inner.coords.max(axis=0) + 3
    box = np.stack(np.meshgrid(*map(np.arange, lo, hi + 1), indexing="ij"), axis=-1).reshape(-1, 3)
    outside = box[inner.positions(box) < 0]
    assert len(outside) > len(box) // 2
    assert min(H3.length(g) for g in map(tuple, outside.tolist())) == 13


def test_word_lengths_enumerate_nothing():
    # each length is a closed form, so no cap stops it, and numpy coordinates whose
    # products pass int64 are read as Python ints
    sizes = {group: list(e.sizes) for group, e in cayley._ENUMERATIONS.items()}
    with element_cap(1):
        assert word_length(H3, (30, 0, 0)) == 30
        assert word_length(H3, (0, 0, 10**12)) == 4_000_000
        assert word_length(H3, (2**70, 0, 0)) == 2**70
        assert word_length(H3, tuple(np.array([2**40, 2**40, 2**62], dtype=np.int64))) == 2**41
        samples = {(0, 0, 100): 40, (0, 0, 9): 12, (2, -3, 4): 9, (-2, 3, -10): 9}
        assert {g: word_length(H3, g) for g in samples} == samples
        far = derivative(AlgebraElement(H3, {(1, 0, 0): 1, (0, 0, 400): 1}))
        assert far.coeffs() == {(1, 0, 0): 1, (0, 0, 400): 80}
    assert {group: list(e.sizes) for group, e in cayley._ENUMERATIONS.items()} == sizes


# ---------------------------------------------------------------------------
# boundary deficits


def test_folner_deficit_on_z():
    assert folner_deficit(Z1, (1,), 2) == 1
    assert folner_deficit(Z1, (3,), 2) == 3
    assert folner_deficit(Z1, (0,), 2) == 0


def test_deficit_identity_is_zero():
    for grp in (Z2, H3):
        assert folner_deficit(grp, grp.identity(), 3) == 0


def test_translate_overlap_symmetric_under_inversion():
    for grp, lam in ((Z2, 2), (H3, 2), (Z1, 3)):
        double = ball(grp, 2 * lam)
        for x in double.elements:
            assert ball_overlap(grp, x, lam) == ball_overlap(grp, grp.inverse(x), lam)


def test_boundary_inequality_within_double_ball():
    # deficit(x) <= word_length(x) * worst single-generator deficit, exactly
    for grp, lam in ((Z2, 3), (H3, 2)):
        worst = max(folner_deficit(grp, g, lam) for g in grp.generators)
        double = ball(grp, 2 * lam)
        for x in double.elements:
            assert folner_deficit(grp, x, lam) <= double.length_of(x) * worst


def _geodesic_word(grp, g):
    word = []
    length = word_length(grp, g)
    while length > 0:
        for s in grp.generators:
            shorter = grp.multiply(g, grp.inverse(s))
            if word_length(grp, shorter) == length - 1:
                word.append(s)
                g = shorter
                length -= 1
                break
        else:
            raise AssertionError("no geodesic step found")
    word.reverse()
    return word


def test_chain_decomposition_bounds_deficit():
    rng = np.random.default_rng(4)
    for grp in (Z2, H3):
        elems = ball(grp, 4).elements
        for _ in range(15):
            x = elems[int(rng.integers(len(elems)))]
            word = _geodesic_word(grp, x)
            total = sum(folner_deficit(grp, s, 3) for s in word)
            assert folner_deficit(grp, x, 3) <= total


# ---------------------------------------------------------------------------
# growth reports


def test_growth_ratios_on_z():
    rep = growth_report(Z1, 10)
    for lam in range(1, 10):
        assert rep.ratio_at(lam) == Fraction(2, 2 * lam + 1)


def test_growth_ratio_example_z2():
    rep = growth_report(Z2, 4)
    assert rep.ratio_at(2) == Fraction(12, 13)


def test_growth_sizes_strictly_increasing():
    for grp in (Z1, Z2, H3):
        rep = growth_report(grp, 6)
        sizes = rep.ball_sizes
        assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_growth_beta_fit_z():
    rep = growth_report(Z1, 64)
    assert abs(rep.fitted_beta - 1.0) <= 0.1


def test_growth_degree_fits():
    assert abs(growth_report(Z1, 32, fit_min=8).fitted_degree - 1.0) <= 0.25
    assert abs(growth_report(Z2, 32, fit_min=8).fitted_degree - 2.0) <= 0.25


def test_growth_ratios_consistent_with_sizes():
    for grp in (Z2, H3):
        rep = growth_report(grp, 5)
        for lam in range(1, 5):
            s0, s1 = rep.ball_sizes[lam], rep.ball_sizes[lam + 1]
            assert rep.ratio_at(lam) == Fraction(s1 - s0, s0)
            assert rep.ratio_at(lam) > 0


def test_growth_report_requires_range():
    with pytest.raises(ValueError):
        growth_report(Z1, 1)
