"""Ball truncation, reconstruction, and averaging identity tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from spectrunc import (
    AlgebraElement,
    Ball,
    FreeAbelian,
    Heisenberg,
    ResourceCapError,
    ToeplitzOperator,
    ball,
    compress,
    convolve,
    delta,
    derivative,
    dirac_commutator,
    element_cap,
    fejer_apply,
    fejer_kernel,
    format_toeplitz,
    involution,
    lip_distance,
    lipnorm,
    materialize,
    opnorm,
    parse_toeplitz,
    random_density_state,
    random_element,
    random_selfadjoint,
    random_vector_state,
    reconstruct,
    spectral_norm,
    state_eval,
    truncated_lipnorm,
    truncation_defect,
    unit,
    vector_state,
)

from oracles import (
    Cyclic,
    EvenPlane,
    averaging_check,
    defect_reference,
    dense_matrix,
    lipnorm_reference,
    random_psd,
    truncated_derivative,
)
from oracles import random_selfadjoint as scalar_random_selfadjoint

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
H3 = Heisenberg()


def _rational_element(group, radius, rng, denom=16):
    """Random element with Fraction coefficients, for exact-arithmetic tests."""
    f = random_element(group, radius, rng)
    return AlgebraElement(
        group,
        {
            g: Fraction(int(round(v.real * denom)), denom)
            + Fraction(int(round(v.imag * denom)), denom) * 1
            for g, v in f.items()
        },
    )


# ---------------------------------------------------------------------------
# construction and symbol plumbing


def test_symbol_must_fit_double_ball():
    with pytest.raises(ValueError):
        ToeplitzOperator(Z1, 1, {(3,): 1.0})
    T = ToeplitzOperator(Z1, 1, {(2,): 1.0, (0,): 0.0})
    assert set(T.support) == {(2,)}


def test_symbol_keys_are_validated_once_and_keep_their_messages(monkeypatch):
    with pytest.raises(ValueError) as invalid:
        ToeplitzOperator(Z1, 1, {(1.5,): 1.0})
    assert str(invalid.value) == "(1.5,) is not a valid element of z:1"
    with pytest.raises(ValueError) as outside:
        ToeplitzOperator(Z1, 1, {(0,): 1.0, (3,): 0})
    assert str(outside.value) == "symbol entry at (3,) lies outside the double ball of radius 2"
    seen = []
    monkeypatch.setattr(Heisenberg, "validate", lambda self, g: seen.append(g))
    symbol = {(1, 0, 0): 1.0, (0, 1, 0): 0.0, (0, 0, 0): 2.0}
    ToeplitzOperator(H3, 1, symbol)
    assert seen == list(symbol)


def test_radius_must_be_positive():
    with pytest.raises(ValueError):
        ToeplitzOperator(Z1, 0, {})
    with pytest.raises(ValueError):
        compress(unit(Z2), 0)
    for lam in (1.5, 2.0):
        with pytest.raises(ValueError, match=rf"^truncation radius must be an integer, got {lam}$"):
            ToeplitzOperator(Z1, lam, {})


def test_compress_restricts_to_double_ball():
    f = delta(Z1, (1,), 2.0) + delta(Z1, (5,), 7.0)
    T = compress(f, 2)
    assert T[(1,)] == 2.0
    assert T[(5,)] == 0
    assert T.radius == 2


@pytest.mark.parametrize(
    "group, far",
    [(Z1, (2**70,)), (Z2, (3, -2**70)), (H3, (1, 0, 2**70)), (Cyclic(7), (3,)),
     (EvenPlane(), (1, 2**70))],
    ids=lambda x: getattr(x, "name", None),
)
def test_compress_keeps_what_a_double_ball_lookup_keeps(group, far):
    # word length at most 2 lam is membership in the double ball; a coordinate past int64
    # lies in no ball and has a word length past every radius
    rng = np.random.default_rng(34)
    for lam in (1, 2):
        f = random_element(group, 2 * lam + 2, rng) + delta(group, far, 0.5)
        inside = ball(group, 2 * lam).positions(list(f.support)) >= 0
        want = {g: v for (g, v), keep in zip(f.items(), inside.tolist()) if keep}
        assert compress(f, lam) == ToeplitzOperator(group, lam, want)


def test_operator_arithmetic():
    S = compress(delta(Z1, (1,)), 2)
    T = compress(delta(Z1, (0,), 2), 2)
    assert (S + T)[(0,)] == 2
    assert (S - S) == ToeplitzOperator(Z1, 2, {})
    assert (3 * S)[(1,)] == 3
    with pytest.raises(ValueError):
        S + compress(delta(Z1, (1,)), 3)
    with pytest.raises(ValueError):
        S + compress(delta(Z2, (1, 0)), 2)


def test_operators_never_mix_with_plain_elements():
    f = delta(Z1, (1,))
    T = compress(f, 1)
    assert T != f and f != T
    assert T == ToeplitzOperator(Z1, 1, f.coeffs())
    with pytest.raises(ValueError):
        f + T
    with pytest.raises(ValueError):
        T + f
    with pytest.raises(ValueError):
        f - T
    for U in (-T, 2 * T, T * 2, T - T):
        assert isinstance(U, ToeplitzOperator) and U.radius == 1
    with pytest.raises(ValueError):
        ToeplitzOperator(Z1, 1, {(3,): 0})


def test_is_selfadjoint():
    assert compress(unit(Z2), 1).is_selfadjoint()
    T = ToeplitzOperator(Z1, 1, {(1,): 1 + 1j, (-1,): 1 - 1j})
    assert T.is_selfadjoint()
    assert not ToeplitzOperator(Z1, 1, {(1,): 1.0}).is_selfadjoint()


def test_materialize_example_on_z():
    T = compress(delta(Z1, (1,)) + delta(Z1, (0,), 2), 1)
    M = materialize(T)
    want = np.array([[2, 1, 0], [0, 2, 0], [1, 0, 2]], dtype=complex)
    assert np.array_equal(M, want)


def test_materialize_agrees_with_rep_compression():
    rng = np.random.default_rng(20)
    for grp, lam in ((Z2, 2), (H3, 2)):
        f = random_element(grp, 2 * lam, rng)
        assert np.array_equal(materialize(compress(f, lam)), dense_matrix(grp, lam, f.coeffs()))


def test_identity_operator_materializes_to_identity():
    assert np.array_equal(materialize(compress(unit(H3), 1)), np.eye(5))


# ---------------------------------------------------------------------------
# derivative and reconstruction maps


def test_truncated_derivative_weights_symbol():
    # the identity coefficient 5 has length 0, and (2,) is weighted by 2**2
    T = compress(delta(Z1, (2,), 3) + delta(Z1, (0,), 5), 1)
    assert truncated_lipnorm(T, 2) == spectral_norm(materialize(compress(delta(Z1, (2,), 12), 1)))
    assert truncated_lipnorm(T, 2) == 12.0


def test_truncated_lipnorm_of_shift():
    for lam in (1, 2, 3):
        T = compress(delta(Z1, (1,)), lam)
        assert truncated_lipnorm(T, 1) == pytest.approx(1.0, abs=1e-12)


def test_compress_then_reconstruct_is_kernel_smoothing():
    rng = np.random.default_rng(21)
    for grp, lam in ((Z1, 3), (Z2, 2), (H3, 1)):
        f = _rational_element(grp, 2 * lam, rng)
        assert reconstruct(compress(f, lam)) == fejer_apply(f, lam)


def test_reconstruct_weights_are_overlap_fractions():
    T = compress(delta(Z1, (1,), Fraction(1)) + delta(Z1, (3,), Fraction(1)), 2)
    r = reconstruct(T)
    assert r[(1,)] == Fraction(4, 5)
    assert r[(3,)] == Fraction(2, 5)


def test_intertwines_derivative_exactly():
    rng = np.random.default_rng(22)
    for grp, lam in ((Z2, 2), (H3, 1)):
        f = _rational_element(grp, 2 * lam, rng)
        T = compress(f, lam)
        for s in (1, 2):
            assert compress(derivative(f, s), lam) == truncated_derivative(T, s)
            assert reconstruct(truncated_derivative(T, s)) == derivative(
                reconstruct(T), s
            )


def test_compression_is_contractive():
    rng = np.random.default_rng(23)
    for grp, lam in ((Z1, 3), (Z2, 2)):
        f = random_element(grp, 2 * lam, rng)
        trunc = spectral_norm(materialize(compress(f, lam)))
        full = opnorm(f, r_max=2 * lam + 4)
        assert trunc <= full.estimate + 1e-9


def test_reconstruction_is_contractive():
    rng = np.random.default_rng(24)
    for grp, lam in ((Z1, 3), (Z2, 2)):
        T = random_selfadjoint(grp, lam, rng)
        full = opnorm(reconstruct(T), r_max=2 * lam + 4).estimate
        assert full <= spectral_norm(materialize(T)) + 1e-9


def test_reconstruction_preserves_positivity():
    rng = np.random.default_rng(25)
    for grp, lam in ((Z2, 2), (H3, 1)):
        for _ in range(5):
            T = random_psd(grp, lam, rng)
            assert np.linalg.eigvalsh(materialize(T)).min() >= -1e-12
            M = materialize(compress(reconstruct(T), lam + 2))
            assert np.linalg.eigvalsh(M).min() >= -1e-10


# ---------------------------------------------------------------------------
# averaging identity


def test_averaging_identity_for_identity_operator():
    T = compress(unit(Z2), 2)
    assert averaging_check(T, {(0, 0): 1.0}, pad=2) <= 1e-12


def test_averaging_identity_random_operators_and_vectors():
    rng = np.random.default_rng(26)
    for grp, lam in ((Z1, 2), (Z2, 2), (H3, 1)):
        for _ in range(5):
            T = random_selfadjoint(grp, lam, rng)
            support = ball(grp, 1).elements
            xi = {
                g: complex(*rng.standard_normal(2))
                for g in support
                if rng.random() < 0.8
            }
            xi[grp.identity()] = 1.0
            assert averaging_check(T, xi, pad=lam + 1) <= 1e-10


def test_averaging_rejects_insufficient_pad():
    T = compress(unit(Z1), 2)
    with pytest.raises(ValueError, match="pad"):
        averaging_check(T, {(3,): 1.0}, pad=1)


def test_averaging_zero_vector_is_trivial():
    assert averaging_check(compress(unit(Z1), 1), {(0,): 0.0}, pad=0) == 0.0


# ---------------------------------------------------------------------------
# commutator degeneracy and round-trip defect


def test_commutator_entries():
    T = compress(delta(Z1, (1,)), 1)
    C = dirac_commutator(T)
    # order (0,), (-1,), (1,): entry (x, y) is (len x - len y) * symbol(x - y)
    want = np.zeros((3, 3))
    want[0, 1] = -1.0
    want[2, 0] = 1.0
    assert np.array_equal(C, want)


def test_commutator_degenerates_at_double_radius():
    for lam in (2, 4, 6):
        T = compress(delta(Z1, (2 * lam,)), lam)
        assert np.all(dirac_commutator(T) == 0)
        assert truncated_lipnorm(T, 1) == pytest.approx(2 * lam, abs=1e-12)


def test_round_trip_defect_closed_form_on_z():
    for lam in (1, 2, 5):
        T = compress(delta(Z1, (1,)), lam)
        res = truncation_defect(T, 1)
        assert res.defect_norm == pytest.approx(1 / (2 * lam + 1), abs=1e-14)
        assert res.lipnorm == pytest.approx(1.0, abs=1e-12)
        assert res.ratio == pytest.approx(1 / (2 * lam + 1), abs=1e-12)


def test_defect_rejects_scalars():
    with pytest.raises(ValueError):
        truncation_defect(compress(unit(Z1), 2))


@pytest.mark.parametrize(
    "group, radii",
    [(Z1, (1, 2, 101)), (Z2, (1, 2)), (H3, (1, 2)), (Cyclic(4), (1, 2))],
    ids=lambda x: getattr(x, "name", None),
)
def test_defect_and_lipnorm_match_the_exact_references(group, radii):
    # Z1 at radius 101 has 203 elements, past the Lanczos crossover
    rng = np.random.default_rng(31)
    for lam in radii:
        floats = random_selfadjoint(group, lam, rng)
        exact = compress(_rational_element(group, 2 * lam, rng), lam)
        exact += ToeplitzOperator(group, lam, {group.generators[0]: Fraction(1, 3)})
        for s in (1, 2, 3):
            assert truncation_defect(floats, s) == defect_reference(floats, s)
            assert truncated_lipnorm(floats, s) == lipnorm_reference(floats, s)
            got, want = truncation_defect(exact, s), defect_reference(exact, s)
            assert got.defect_norm == pytest.approx(want.defect_norm, rel=1e-12)
            assert got.lipnorm == pytest.approx(want.lipnorm, rel=1e-12)
            assert got.ratio == pytest.approx(want.ratio, rel=1e-12)
            want_lip = lipnorm_reference(exact, s)
            assert truncated_lipnorm(exact, s) == pytest.approx(want_lip, rel=1e-12)


def test_each_norm_and_evaluation_makes_no_position_lookup(monkeypatch):
    T = random_selfadjoint(H3, 2, np.random.default_rng(32))
    f = random_element(H3, 3, np.random.default_rng(33))
    phi = vector_state(H3, {(0, 0, 0): 1, (1, 0, 0): 1j}, lam=2)
    calls = {
        "truncation_defect": lambda: truncation_defect(T, 2),
        "truncated_lipnorm": lambda: truncated_lipnorm(T, 3),
        "materialize": lambda: materialize(T),
        "state_eval": lambda: state_eval(phi, T),
    }
    for call in calls.values():
        call()  # caches the kernel and the index map
    lookups = []
    positions = Ball.positions

    def counted(self, elements):
        lookups.append(len(self))
        return positions(self, elements)

    monkeypatch.setattr(Ball, "positions", counted)
    for name, call in calls.items():
        lookups.clear()
        call()
        assert lookups == [], name
    # compress filters by word length and the operator keeps the positions of its
    # membership check, so that check is the one lookup of the double ball
    lookups.clear()
    materialize(compress(f, 2))
    assert lookups == [len(ball(H3, 4))]


def test_weights_are_the_integer_powers_past_int64():
    # len^s is powered in floats: int64 powers wrap once len^s reaches 2^63
    for group, lam in ((Z1, 8), (Z1, 40), (H3, 2)):
        lengths = ball(group, 2 * lam).lengths
        for s in (1, 3, 10, 16):
            got = fejer_kernel(group, lam).weights(s)
            want = [float(n**s) for n in lengths]
            assert got.tolist() == pytest.approx(want, rel=1e-15, abs=0)


@pytest.mark.parametrize("far, lam, s", [(80, 40, 10), (16, 8, 16)])
def test_truncated_lipnorm_is_exact_past_int64(far, lam, s):
    # the one symbol term at the edge of the double ball has norm far^s: 80^10 and 2^64
    T = compress(delta(Z1, (far,)), lam)
    assert truncated_lipnorm(T, s) == pytest.approx(far**s, rel=1e-15)


def test_defect_vanishes_only_through_kernel_weights():
    rng = np.random.default_rng(27)
    T = random_selfadjoint(Z2, 2, rng)
    res = truncation_defect(T, 1)
    assert res.defect_norm > 0
    assert res.ratio == pytest.approx(res.defect_norm / res.lipnorm, rel=1e-12)


# ---------------------------------------------------------------------------
# random generators and text format


def test_random_selfadjoint_is_selfadjoint():
    rng = np.random.default_rng(28)
    for grp in (Z2, H3):
        T = random_selfadjoint(grp, 2, rng)
        assert T.is_selfadjoint()
        M = materialize(T)
        assert np.allclose(M, M.conj().T)


@pytest.mark.parametrize("group", [Z1, Z2, FreeAbelian(3), H3, Cyclic(4)], ids=lambda g: g.name)
def test_random_selfadjoint_matches_the_scalar_pairing(group):
    def bits(T):
        return [(z, v.real.hex(), v.imag.hex()) for z, v in T.items()]

    for lam in (1, 2, 3):
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            T = random_selfadjoint(group, lam, rng)
            ref = scalar_random_selfadjoint(group, lam, ref_rng)
            assert T == ref
            assert bits(T) == bits(ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_psd_has_nonnegative_spectrum():
    rng = np.random.default_rng(29)
    for grp in (Z2, H3):
        for _ in range(5):
            T = random_psd(grp, 2, rng)
            assert np.linalg.eigvalsh(materialize(T)).min() >= -1e-12


def test_psd_square_matches_convolution_square():
    rng = np.random.default_rng(30)
    g = random_element(Z2, 2, rng)
    T = compress(convolve(g, involution(g)), 2)
    M = materialize(T)
    lam_g = materialize(compress(g, 2))
    # the compression of g g* restricted to the ball is not g's compression
    # squared in general, but both are positive; check positivity only
    assert np.linalg.eigvalsh(M).min() >= -1e-12
    assert np.linalg.eigvalsh(lam_g @ lam_g.conj().T).min() >= -1e-12


def test_toeplitz_text_roundtrip():
    T = compress(delta(Z2, (1, -1), 0.5 - 0.25j) + delta(Z2, (0, 0), 2.0), 2)
    text = format_toeplitz(T)
    assert text.startswith("lambda 2\n")
    back = parse_toeplitz(text, Z2)
    assert back == T


def test_toeplitz_text_roundtrip_exact():
    T = ToeplitzOperator(Z1, 1, {(1,): Fraction(4, 5), (-2,): Fraction(-1, 3)})
    back = parse_toeplitz(format_toeplitz(T, exact=True), Z1)
    assert back == T
    assert isinstance(back[(1,)], Fraction)


def test_parse_toeplitz_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_toeplitz("radius 2\n1.0 0.0 0\n", Z1)
    with pytest.raises(ValueError):
        parse_toeplitz("lambda x\n", Z1)


def test_parse_toeplitz_names_file_lines():
    with pytest.raises(ValueError, match="line 2: bad coordinates"):
        parse_toeplitz("lambda 1\n1.0 0.0 x\n", Z1)
    with pytest.raises(ValueError, match="line 4: bad coordinates"):
        parse_toeplitz("# shift\n\nlambda 1\n1.0 0.0 x\n", Z1)
    with pytest.raises(ValueError, match="line 2: bad radius"):
        parse_toeplitz("# c\nlambda x\n", Z1)
    assert parse_toeplitz("lambda 2\n", Z1) == ToeplitzOperator(Z1, 2, {})
    text = "# shift\n\nlambda 1\n\n0.5 0.0 1\n"
    assert parse_toeplitz(text, Z1) == ToeplitzOperator(Z1, 1, {(1,): 0.5})


def test_compress_and_operators_bound_their_double_ball_by_the_cap():
    f = delta(H3, (1, 0, 0))
    assert len(ball(H3, 10)) == 4309
    with element_cap(1000), pytest.raises(ResourceCapError, match="cap of 1000"):
        compress(f, 5)
    with element_cap(1000), pytest.raises(ResourceCapError, match="cap of 1000"):
        ToeplitzOperator(H3, 5, {(1, 0, 0): 1})
    with element_cap(4309):
        T = compress(f, 5)
        assert T == ToeplitzOperator(H3, 5, {(1, 0, 0): 1})


# Heisenberg balls of radius 2 and 4 have 17 and 135 elements: under a cap of 134 a
# truncation to radius 2 fits and its double ball does not.  The far element has word
# length 80, so the opnorm scan of lipnorm starts at radius 9, past the cap.
CAPPED_CALLS = {
    "lipnorm": lambda T, phi, psi, rng: lipnorm(delta(H3, (0, 0, 400)), 1),
    "truncated_lipnorm": lambda T, phi, psi, rng: truncated_lipnorm(T),
    "truncation_defect": lambda T, phi, psi, rng: truncation_defect(T),
    "reconstruct": lambda T, phi, psi, rng: reconstruct(T),
    "dirac_commutator": lambda T, phi, psi, rng: dirac_commutator(T),
    "materialize": lambda T, phi, psi, rng: materialize(T),
    "random_selfadjoint": lambda T, phi, psi, rng: random_selfadjoint(H3, 2, rng),
    "random_vector_state": lambda T, phi, psi, rng: random_vector_state(H3, 4, rng),
    "random_density_state": lambda T, phi, psi, rng: random_density_state(H3, 4, rng),
    "lip_distance": lambda T, phi, psi, rng: lip_distance(phi, psi, 1, 2),
}


@pytest.mark.parametrize("name", CAPPED_CALLS)
def test_the_cap_in_force_bounds_calls_that_take_no_cap(name):
    T = compress(delta(H3, (1, 0, 0)) + delta(H3, (2, 1, 0)), 2)
    phi = vector_state(H3, {(0, 0, 0): 1}, lam=2)
    psi = vector_state(H3, {(1, 0, 0): 1}, lam=2)
    with element_cap(134), pytest.raises(ResourceCapError, match=r"cap of 134\b"):
        CAPPED_CALLS[name](T, phi, psi, np.random.default_rng(0))
