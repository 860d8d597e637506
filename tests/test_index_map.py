"""The truncation index map against dense references built entry by entry.

The references are the direct constructions: a dict from each group element
to the matrix positions that read it, one dense matrix per basis direction,
and pencil contractions with ``tensordot``/``einsum``.  The index-map path
must give bit-equal matrices; its gradients sum in another order and must
agree to 1e-12 relative.
"""

from fractions import Fraction

import numpy as np
import pytest

from spectrunc import (
    AlgebraElement,
    FreeAbelian,
    Heisenberg,
    ResourceCapError,
    ball,
    ball_overlap,
    compress_rep,
    delta,
    fejer_kernel,
    random_element,
    word_length,
)
from spectrunc.groupalg import symbol_positions
from spectrunc.qmetric import (
    SearchParams,
    _epsilon_pencils,
    _selfadjoint_basis,
    _selfadjoint_pencil,
)

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
H = Heisenberg()

PENCIL_CASES = [(Z1, 2), (Z2, 1), (H, 1)]


def _dense_positions(group, radius):
    """Map each z to the (rows, cols) of the ball compression reading z."""
    b = ball(group, radius)
    raw: dict = {}
    for i, x in enumerate(b.elements):
        for j, y in enumerate(b.elements):
            rows, cols = raw.setdefault(group.multiply(x, group.inverse(y)), ([], []))
            rows.append(i)
            cols.append(j)
    return raw


def _dense_matrix(group, radius, symbol):
    n = len(ball(group, radius))
    M = np.zeros((n, n), dtype=complex)
    for z, (rows, cols) in _dense_positions(group, radius).items():
        if z in symbol:
            M[rows, cols] = complex(symbol[z])
    return M


def _dense_epsilon_stacks(group, lam, s, radius):
    kern = fejer_kernel(group, lam)
    ident = group.identity()
    num, den = [], []
    for z in ball(group, 2 * lam).elements:
        if z == ident:
            continue
        base = _dense_matrix(group, radius, {z: 1.0})
        wnum = float(1 - kern.values[z])
        wden = float(word_length(group, z) ** s)
        num += [wnum * base, 1j * wnum * base]
        den += [wden * base, 1j * wden * base]
    return np.array(num), np.array(den)


def _dense_selfadjoint_stack(group, lam, s, basis, lip_scale):
    mats = []
    for sym in basis:
        weighted = {z: v * word_length(group, z) ** s for z, v in sym.items()}
        mats.append(_dense_matrix(group, lam, weighted))
    return np.array(mats) * lip_scale


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
    for radius in (lam, lam + SearchParams().r_pad):
        _, num, den = _epsilon_pencils(group, lam, s, radius, None)
        ref_num, ref_den = _dense_epsilon_stacks(group, lam, s, radius)
        _assert_pencil_matches(num, ref_num, rng)
        _assert_pencil_matches(den, ref_den, rng)


@pytest.mark.parametrize("group,lam", PENCIL_CASES)
def test_selfadjoint_pencil_matches_dense_stack(group, lam):
    rng = np.random.default_rng(8)
    basis = _selfadjoint_basis(group, lam)
    pencil = _selfadjoint_pencil(group, lam, 2, basis, 1.7)
    _assert_pencil_matches(pencil, _dense_selfadjoint_stack(group, lam, 2, basis, 1.7), rng)


@pytest.mark.parametrize("group,lam", PENCIL_CASES)
def test_epsilon_floor_is_the_best_basis_direction(group, lam):
    kern = fejer_kernel(group, lam)
    ident = group.identity()
    floor = max(
        float(1 - kern.values[z]) / word_length(group, z) ** 3
        for z in ball(group, 2 * lam).elements
        if z != ident
    )
    assert _epsilon_pencils(group, lam, 3, lam, None)[0] == floor


@pytest.mark.parametrize("group,lam", [(H, 1), (H, 2), (H, 3), (Z2, 1), (Z2, 2), (Z2, 3), (Z2, 4)])
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
    assert np.array_equal(compress_rep(f, radius), _dense_matrix(group, radius, f.coeffs()))


def test_compress_rep_drops_support_outside_the_double_ball():
    inside = AlgebraElement(Z1, {(1,): 2.0, (-2,): 0.5j})
    f = inside + delta(Z1, (5,), 3.0) + delta(Z1, (-3,), 1.0)
    assert np.array_equal(compress_rep(f, 1), compress_rep(inside, 1))
    assert np.array_equal(compress_rep(f, 1), _dense_matrix(Z1, 1, f.coeffs()))


def test_index_map_is_shared_and_read_only():
    idx = symbol_positions(H, 2)
    assert idx is symbol_positions(H, 2)
    assert idx.dtype == np.int32 and idx.shape == (17, 17)
    with pytest.raises(ValueError):
        idx[0, 0] = 1


def test_double_ball_leads_every_larger_double_ball():
    small, large = ball(H, 4), ball(H, 8)
    assert large.elements[: len(small)] == small.elements


def test_cap_is_checked_before_the_cache():
    fejer_kernel(Z1, 3)
    with pytest.raises(ResourceCapError):
        fejer_kernel(Z1, 3, cap=3)
    symbol_positions(Z1, 3)
    with pytest.raises(ResourceCapError):
        symbol_positions(Z1, 3, cap=3)
