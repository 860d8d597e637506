"""Convolution algebra, norms, derivatives, and averaging kernel tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spectrunc import (
    AlgebraElement,
    FreeAbelian,
    Heisenberg,
    OpnormResult,
    ResourceCapError,
    ball,
    compress,
    convolve,
    delta,
    derivative,
    element_cap,
    fejer_apply,
    fejer_kernel,
    format_algebra_element,
    involution,
    l1_norm,
    l2_norm,
    lipnorm,
    materialize,
    opnorm,
    parse_algebra_element,
    random_element,
    spectral_norm,
    unit,
    word_length,
)
from spectrunc import cayley, groupalg
from spectrunc.groupalg import _lanczos_norm

from oracles import dense_matrix, folner_deficit

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
H3 = Heisenberg()


def _poly_convolve_oracle(f, g):
    """Oracle for Z: convolution is polynomial multiplication via numpy."""
    lo = min(k for (k,) in f.support) + min(k for (k,) in g.support)
    fk = sorted(f.support)
    gk = sorted(g.support)
    fa = np.zeros(fk[-1][0] - fk[0][0] + 1, dtype=complex)
    ga = np.zeros(gk[-1][0] - gk[0][0] + 1, dtype=complex)
    for (k,), v in f.items():
        fa[k - fk[0][0]] = complex(v)
    for (k,), v in g.items():
        ga[k - gk[0][0]] = complex(v)
    prod = np.convolve(fa, ga)
    return {(lo + i,): c for i, c in enumerate(prod) if c != 0}


# ---------------------------------------------------------------------------
# algebra structure


def test_zero_coefficients_dropped():
    f = AlgebraElement(Z1, {(0,): 0, (1,): 2})
    assert set(f.support) == {(1,)}
    assert f[(0,)] == 0
    assert len(f) == 1


def test_vector_space_operations():
    f = delta(Z1, (1,), 2) + delta(Z1, (0,), 1)
    g = delta(Z1, (1,), -2)
    assert (f + g) == delta(Z1, (0,), 1)
    assert (f - f) == AlgebraElement(Z1, {})
    assert (-f) == -1 * f
    assert 3 * f == f * 3


def test_convolution_on_z_example():
    f = delta(Z1, (1,)) + delta(Z1, (-1,))
    sq = convolve(f, f)
    assert sq == AlgebraElement(Z1, {(2,): 1, (0,): 2, (-2,): 1})


def test_convolution_matches_polynomial_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        f = random_element(Z1, 4, rng)
        g = random_element(Z1, 4, rng)
        got = convolve(f, g)
        want = _poly_convolve_oracle(f, g)
        assert set(got.support) == set(want)
        for k, v in want.items():
            assert abs(complex(got[k]) - v) < 1e-12


def test_convolution_noncommutative_on_heisenberg():
    a = delta(H3, (1, 0, 0))
    b = delta(H3, (0, 1, 0))
    assert convolve(a, b) == delta(H3, (1, 1, 1))
    assert convolve(b, a) == delta(H3, (1, 1, 0))


def test_convolution_unit_and_associativity():
    rng = np.random.default_rng(6)
    for grp in (Z2, H3):
        e = unit(grp)
        f = random_element(grp, 2, rng)
        g = random_element(grp, 2, rng)
        h = random_element(grp, 2, rng)
        assert convolve(e, f) == f
        assert convolve(f, e) == f
        left = convolve(convolve(f, g), h)
        right = convolve(f, convolve(g, h))
        diff = left - right
        assert all(abs(complex(v)) < 1e-10 for _, v in diff.items())


def test_involution_is_antimultiplicative_star():
    rng = np.random.default_rng(7)
    f = random_element(H3, 2, rng)
    g = random_element(H3, 2, rng)
    lhs = involution(convolve(f, g))
    rhs = convolve(involution(g), involution(f))
    diff = lhs - rhs
    assert all(abs(complex(v)) < 1e-12 for _, v in diff.items())
    assert involution(involution(f)) == f


def test_involution_example():
    f = delta(Z1, (2,), 1 + 2j)
    assert involution(f) == delta(Z1, (-2,), 1 - 2j)


def test_involution_preserves_rationals():
    f = delta(Z1, (1,), Fraction(2, 3))
    assert involution(f)[(-1,)] == Fraction(2, 3)
    assert isinstance(involution(f)[(-1,)], Fraction)


# ---------------------------------------------------------------------------
# derivatives and norms


def test_derivative_weights_by_length_power():
    f = delta(Z1, (2,), 3) + delta(Z1, (0,), 5)
    assert derivative(f, 1) == delta(Z1, (2,), 6)
    assert derivative(f, 2) == delta(Z1, (2,), 12)
    with pytest.raises(ValueError):
        derivative(f, 0)


def test_derivative_kills_exactly_the_scalars():
    assert derivative(unit(Z2) * 7, 1) == AlgebraElement(Z2, {})
    f = delta(H3, (1, 0, 0))
    assert len(derivative(f, 3)) == 1


def test_elementary_norms():
    f = delta(Z1, (1,), 3) + delta(Z1, (-1,), -4)
    assert l1_norm(f) == 7.0
    assert l2_norm(f) == 5.0


# ---------------------------------------------------------------------------
# compressions and operator norms


def test_compress_rep_shift_on_z():
    M = materialize(compress(delta(Z1, (1,)), 1))
    # ball order is (0,), (-1,), (1,); entry [x, y] holds f(x y^-1)
    want = np.zeros((3, 3))
    want[0, 1] = 1
    want[2, 0] = 1
    assert np.array_equal(M, want)


def test_compress_rep_identity_is_identity_matrix():
    M = materialize(compress(unit(Z2) * 3, 2))
    assert np.array_equal(M, 3 * np.eye(13))


def test_compression_norm_is_path_graph_eigenvalue():
    f = delta(Z1, (1,)) + delta(Z1, (-1,))
    for R in (1, 2, 5, 9):
        got = spectral_norm(materialize(compress(f, R)))
        want = 2 * math.cos(math.pi / (2 * R + 2))
        assert abs(got - want) < 1e-12


def lanczos_dense(M):
    """``_lanczos_norm`` on a dense matrix, through its products."""
    return _lanczos_norm(M.__matmul__, lambda u: M.conj().T @ u, M.shape[1])


def test_lanczos_norm_bounds_and_meets_separated_norms():
    rng = np.random.default_rng(11)
    assert lanczos_dense(np.zeros((3, 3))) == 0.0
    for m, n in ((1, 1), (5, 5), (6, 9), (12, 4)):
        for _ in range(5):
            M = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            assert lanczos_dense(M) <= np.linalg.norm(M, 2) + 1e-12
            k = min(m, n)
            U, _ = np.linalg.qr(rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
            V, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
            sigma = np.concatenate([[4.0], rng.uniform(0.0, 2.0, k - 1)])
            got = lanczos_dense(U @ np.diag(sigma) @ V.conj().T)
            assert got <= 4.0 + 1e-12
            assert abs(got - 4.0) <= 1e-9


def test_lanczos_stops_when_the_krylov_space_runs_out_between_checks():
    rng = np.random.default_rng(14)
    n = groupalg._LANCZOS_THRESHOLD + 100
    U = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    V = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    M = U @ V.conj().T  # rank 3: the Krylov space runs out at the fourth vector, between checks
    got = lanczos_dense(M)
    want = np.linalg.norm(M, 2)
    assert math.isfinite(got)
    assert abs(got - want) <= 1e-12 * want
    assert got <= want * (1 + 1e-12)
    assert len(ball(Z2, 10)) > groupalg._LANCZOS_THRESHOLD
    assert abs(groupalg._compression_norm(delta(Z2, (2, 1), 1j), 10) - 1.0) <= 1e-15


def dense_norm(M):
    """Reference top singular value: root of the top Gram eigenvalue."""
    return math.sqrt(max(np.linalg.eigvalsh(M.conj().T @ M)[-1], 0.0))


def test_spectral_norm_of_large_heisenberg_compressions_matches_dense():
    rng = np.random.default_rng(2024)
    for radius, n in ((5, 299), (6, 593), (7, 1069)):
        M = materialize(compress(random_element(H3, 2, rng), radius))
        assert len(M) == n
        got, want = spectral_norm(M), dense_norm(M)
        assert abs(got - want) <= 1e-12 * want
        assert got <= want * (1 + 1e-12)


def test_spectral_norm_above_threshold_exact_and_clustered_cases():
    n = groupalg._LANCZOS_THRESHOLD + 1
    assert spectral_norm(-2 * np.eye(n)) == 2.0
    point = materialize(compress(delta(Z2, (2, 1), 1j), 12))
    assert len(point) > groupalg._LANCZOS_THRESHOLD
    assert spectral_norm(point) == 1.0
    assert spectral_norm(np.zeros((n, n))) == 0.0
    rng = np.random.default_rng(12)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sigma = np.concatenate([[4.0, 4.0 - 1e-9], rng.uniform(0.0, 2.0, n - 2)])
    got = spectral_norm(U @ np.diag(sigma) @ V.conj().T)
    assert got <= 4.0 + 1e-12
    assert abs(got - 4.0) <= 1e-9


@pytest.mark.parametrize("shape", [(260, 40), (40, 260)])
def test_spectral_norm_of_rectangular_matrix_above_threshold(shape):
    rng = np.random.default_rng(13)
    M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.linalg.norm(M, 2)
    got = spectral_norm(M)
    assert abs(got - want) <= 1e-12 * want
    assert got <= want * (1 + 1e-12)


def test_opnorm_scan_agrees_with_dense_norm_scan(monkeypatch):
    rng = np.random.default_rng(31)
    elements = [random_element(H3, 2, rng) for _ in range(3)]
    scans = [opnorm(f, r_max=6) for f in elements]
    monkeypatch.setattr(groupalg, "_LANCZOS_THRESHOLD", 10**9)
    for f, got in zip(elements, scans):
        want = opnorm(f, r_max=6)
        assert (got.converged, got.last_radius) == (want.converged, want.last_radius)
        assert abs(got.estimate - want.estimate) <= 1e-12 * want.estimate


@pytest.mark.parametrize("group, radius", [(H3, 5), (H3, 6), (H3, 7), (Z2, 12)])
def test_matrix_free_compression_norm_matches_the_dense_norm(group, radius):
    rng = np.random.default_rng(radius)
    assert len(ball(group, radius)) > groupalg._LANCZOS_THRESHOLD
    for f in (random_element(group, 2, rng), derivative(random_element(group, 3, rng), 2)):
        want = spectral_norm(materialize(compress(f, radius)))
        got = groupalg._compression_norm(f, radius)
        assert abs(got - want) <= 1e-12 * want


def built_index_maps():
    """The (group, radius) of every cached truncation whose index map has been built."""
    return [key for key, t in groupalg._TRUNCATIONS.items() if "index_map" in vars(t)]


def test_matrix_free_scan_builds_no_index_map_or_double_ball(monkeypatch):
    monkeypatch.setattr(cayley, "_BALL_CACHE", {})
    monkeypatch.setattr(groupalg, "_TRUNCATIONS", {})
    # (7, 7, 0) has length 14, so both scans start one radius below the floor 7
    f = random_element(H3, 2, np.random.default_rng(15)) + delta(H3, (7, 7, 0))
    table_radii = [r for r in range(8) if len(ball(H3, r)) > groupalg._LANCZOS_THRESHOLD]
    assert table_radii == [5, 6, 7]
    opnorm(f, r_max=4)
    res = opnorm(f, r_max=7)
    assert res.last_radius == 7
    assert built_index_maps() == []
    assert not any((H3, 2 * r) in cayley._BALL_CACHE for r in table_radii)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_opnorm_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        opnorm(delta(Z1, (1,)), tol=tol)


def test_opnorm_cap_stops_the_scan_at_its_first_radius():
    # (0, 0, 400) has length 80, so the scan starts at radius 9, whose ball passes the cap
    with pytest.raises(ResourceCapError, match=r"^ball of radius 9 in heisenberg .*cap of 1000\b"):
        with element_cap(1000):
            opnorm(delta(H3, (0, 0, 400)))


def test_opnorm_of_point_mass_is_one():
    res = opnorm(delta(Z2, (2, 1), 1j))
    assert res.estimate == 1.0
    assert res.converged


def test_opnorm_of_a_point_mass_past_int64_is_its_l2_norm_unconverged():
    # the coordinate reads as 2**62, in no ball, so every compression is 0 and the scan never
    # reaches the radius that would see the support
    res = opnorm(delta(H3, (10**20, 0, 0)))
    assert (res.estimate, res.converged) == (1.0, False)


def test_opnorm_of_scalar():
    res = opnorm(unit(H3) * -2)
    assert res.estimate == 2.0
    assert res.converged
    assert opnorm(AlgebraElement(Z1, {})).estimate == 0.0


def test_opnorm_does_not_stop_before_seeing_support():
    # compressions at radii 0 and 1 are both zero; the scan must keep going
    f = delta(Z1, (3,))
    res = opnorm(f, tol=1e-8, r_max=6)
    assert res.estimate == 1.0


def full_radius_scan(f, tol, r_max, norm=None):
    """The opnorm scan run from radius 0, which skips nothing below the floor."""
    norm = norm or groupalg._compression_norm
    r_floor = (max(word_length(f.group, g) for g in f.support) + 1) // 2
    estimate, prev = l2_norm(f), None
    for radius in range(r_max + 1):
        sigma = norm(f, radius)
        estimate = max(estimate, sigma)
        if prev is not None and radius >= r_floor and abs(sigma - prev) < tol:
            return OpnormResult(estimate, True, radius)
        prev = sigma
    return OpnormResult(estimate, False, r_max)


def test_opnorm_skips_the_radii_below_its_floor(monkeypatch):
    radii = []
    norm = groupalg._compression_norm

    def counted(f, radius):
        radii.append(radius)
        return norm(f, radius)

    monkeypatch.setattr(groupalg, "_compression_norm", counted)
    assert opnorm(delta(Z1, (20,), 1j), r_max=11) == OpnormResult(1.0, True, 11)
    assert radii == [9, 10, 11]
    radii.clear()
    assert opnorm(delta(Z1, (7,)), r_max=2) == OpnormResult(1.0, False, 2)
    assert radii == [1, 2]


def test_opnorm_matches_the_scan_from_radius_zero():
    rng = np.random.default_rng(32)
    for group, radius in ((Z1, 6), (Z2, 3), (H3, 2)):
        f = random_element(group, radius, rng)
        for r_max in (1, 4, 6, 9):
            assert opnorm(f, r_max=r_max) == full_radius_scan(f, 1e-8, r_max)


def dense_up_to_the_crossover(f, radius):
    """The compression norm of the dense matrix up to the Lanczos crossover, matrix-free above."""
    if len(ball(f.group, radius)) <= groupalg._LANCZOS_THRESHOLD:
        return spectral_norm(dense_matrix(f.group, radius, f.coeffs()))
    return groupalg._compression_norm(f, radius)


def test_opnorm_scans_read_no_index_map_at_any_size(monkeypatch):
    rng = np.random.default_rng(33)
    # the far support element (10, 10) puts the Z2 scan's floor at radius 10, past the crossover
    cases = [
        (random_element(group, 2, rng) + AlgebraElement(group, far), r_max)
        for group, far, r_max in ((Z1, {}, 6), (Z2, {}, 6), (Z2, {(10, 10): 1}, 11), (H3, {}, 6))
        for _ in range(3)
    ]
    want = [full_radius_scan(f, 1e-8, r_max, dense_up_to_the_crossover) for f, r_max in cases]
    lip_want = opnorm(derivative(cases[-1][0], 2), r_max=6).estimate
    monkeypatch.setattr(groupalg, "_TRUNCATIONS", {})

    def refuse(*args, **kwargs):
        raise AssertionError("an opnorm scan read an index map")

    monkeypatch.setattr(groupalg, "symbol_positions", refuse)
    got = [opnorm(f, r_max=r_max) for f, r_max in cases]
    assert lipnorm(cases[-1][0], 2, r_max=6) == lip_want
    assert built_index_maps() == []
    assert [g.estimate.hex() for g in got] == [w.estimate.hex() for w in want]
    assert got == want
    crossed = {f.group for (f, _), res in zip(cases, got)
               if len(ball(f.group, res.last_radius)) > groupalg._LANCZOS_THRESHOLD}
    assert crossed == {Z2, H3}


def test_opnorm_reports_nonconvergence_within_budget():
    f = delta(Z1, (1,)) + delta(Z1, (-1,))
    res = opnorm(f, tol=1e-8, r_max=4)
    assert not res.converged
    assert res.last_radius == 4
    assert abs(res.estimate - 2 * math.cos(math.pi / 10)) < 1e-12


def test_opnorm_estimates_are_monotone_lower_bounds():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_element(Z2, 2, rng)
        lo = opnorm(f, r_max=2).estimate
        hi = opnorm(f, r_max=4).estimate
        assert lo <= hi + 1e-12
        assert hi <= l1_norm(f) + 1e-9


def test_lipnorm_examples():
    assert lipnorm(delta(Z1, (1,)), 1) == 1.0
    assert lipnorm(unit(Z1) * 9, 1) == 0.0
    f = delta(Z1, (1,)) + delta(Z1, (-1,))
    val = lipnorm(f, 1, r_max=24)
    assert abs(val - 2 * math.cos(math.pi / 50)) < 1e-12


def test_lipnorm_is_a_seminorm():
    rng = np.random.default_rng(9)
    f = random_element(Z2, 2, rng)
    g = random_element(Z2, 2, rng)
    lf = lipnorm(f, 1, r_max=6)
    lg = lipnorm(g, 1, r_max=6)
    assert abs(lipnorm(2.5 * f, 1, r_max=6) - 2.5 * lf) < 1e-9
    assert lipnorm(f + g, 1, r_max=6) <= lf + lg + 1e-7
    assert abs(lipnorm(involution(f), 1, r_max=6) - lf) < 1e-9


# ---------------------------------------------------------------------------
# averaging kernel


def test_fejer_closed_form_on_z():
    kern = fejer_kernel(Z1, 2)
    assert kern((0,)) == 1
    assert kern((1,)) == Fraction(4, 5)
    assert kern((2,)) == Fraction(3, 5)
    assert kern((3,)) == Fraction(2, 5)
    assert kern((4,)) == Fraction(1, 5)
    assert kern((5,)) == 0
    assert kern((10**30,)) == 0
    assert kern.folner_epsilon == Fraction(1, 5)


def test_fejer_symmetry_and_range():
    for grp, lam in ((Z2, 3), (H3, 2)):
        kern = fejer_kernel(grp, lam)
        assert kern(grp.identity()) == 1
        for x, v in kern.values.items():
            assert 0 < v <= 1
            assert kern(grp.inverse(x)) == v
            assert word_length(grp, x) <= 2 * lam


def test_fejer_epsilon_matches_generator_deficits():
    for grp, lam in ((Z2, 4), (H3, 3)):
        kern = fejer_kernel(grp, lam)
        n = len(ball(grp, lam))
        worst = max(Fraction(folner_deficit(grp, g, lam), n) for g in grp.generators)
        assert kern.folner_epsilon == worst


def test_fejer_requires_positive_radius():
    with pytest.raises(ValueError):
        fejer_kernel(Z1, 0)
    for lam in (1.5, 2.0):
        with pytest.raises(ValueError, match=rf"^truncation radius must be an integer, got {lam}$"):
            fejer_kernel(Z1, lam)


def test_fejer_apply_scales_coefficients():
    f = delta(Z1, (1,), Fraction(1)) + delta(Z1, (4,), Fraction(2))
    out = fejer_apply(f, 2)
    assert out[(1,)] == Fraction(4, 5)
    assert out[(4,)] == Fraction(2, 5)
    g = delta(Z1, (5,)) + delta(Z1, (-(2**70),))
    assert len(fejer_apply(g, 2)) == 0
    assert fejer_apply(f + g, 2) == out


def test_fejer_apply_commutes_with_derivative_exactly():
    rng = np.random.default_rng(12)
    for grp, lam in ((Z2, 2), (H3, 2)):
        f = random_element(grp, 3, rng)
        exact = AlgebraElement(
            f.group, {g: Fraction(int(round(v.real * 64)), 64) for g, v in f.items()}
        )
        assert derivative(fejer_apply(exact, lam), 2) == fejer_apply(
            derivative(exact, 2), lam
        )


def test_smoothing_error_bounded_by_weighted_mass():
    # || f - Ff ||_2^2 <= eps * sum_{x != e} len(x)^2 |f(x)|^2
    rng = np.random.default_rng(13)
    for grp, lam in ((Z2, 3), (H3, 2)):
        kern = fejer_kernel(grp, lam)
        eps = float(kern.folner_epsilon)
        for _ in range(10):
            f = random_element(grp, 3, rng)
            err = l2_norm(f - fejer_apply(f, lam)) ** 2
            mass = sum(
                word_length(grp, g) ** 2 * abs(complex(v)) ** 2
                for g, v in f.items()
                if g != grp.identity()
            )
            assert err <= eps * mass + 1e-12


# ---------------------------------------------------------------------------
# text round trips


def test_format_parse_roundtrip_float():
    f = delta(Z2, (1, -2), 0.5 - 0.25j) + delta(Z2, (0, 0), 2.0)
    text = format_algebra_element(f)
    assert parse_algebra_element(text, Z2) == f


def test_format_parse_roundtrip_exact():
    f = delta(Z1, (3,), Fraction(4, 5)) + delta(Z1, (-1,), Fraction(-2, 7))
    text = format_algebra_element(f, exact=True)
    assert "4/5" in text
    back = parse_algebra_element(text, Z1)
    assert back == f
    assert isinstance(back[(3,)], Fraction)


def test_exact_integer_tokens_roundtrip():
    f = delta(Z1, (0,), Fraction(3)) + delta(Z1, (2,), Fraction(-1, 3))
    text = format_algebra_element(f, exact=True)
    assert text == "3 0 0\n-1/3 0 2\n"
    back = parse_algebra_element(text, Z1)
    assert back == f
    assert isinstance(back[(0,)], (int, Fraction))
    assert format_algebra_element(back, exact=True) == text


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_algebra_element("1.0 0.0\n", Z2)
    with pytest.raises(ValueError):
        parse_algebra_element("x y 1 2\n", Z2)


@pytest.mark.parametrize("token", ["x", "1/0", "1/x", "nan", "inf", "-inf", "1e400"])
def test_parse_names_the_line_of_a_bad_coefficient(token):
    with pytest.raises(ValueError, match=f"^line 2: bad coefficient '{token}'$"):
        parse_algebra_element(f"# c\n{token} 0 1\n", Z1)
    with pytest.raises(ValueError, match=f"^line 1: bad coefficient '{token}'$"):
        parse_algebra_element(f"1.0 {token} 1\n", Z1)
