"""Acceptance gate: one test and one printed verdict line per guarantee.

Each test checks a headline numerical guarantee of the library at its stated
tolerance and prints a single PASS/FAIL line to the real terminal, so a full
run leaves a visible scorecard.
"""

import math
from fractions import Fraction

import numpy as np

from spectrunc import (
    AlgebraElement,
    FreeAbelian,
    Heisenberg,
    SearchParams,
    ball,
    compress,
    delta,
    derivative,
    dirac_commutator,
    epsilon_full,
    epsilon_truncated,
    fejer_apply,
    fejer_kernel,
    gh_bound,
    growth_report,
    l2_norm,
    lip_distance,
    materialize,
    random_density_state,
    random_element,
    random_selfadjoint,
    random_vector_state,
    reconstruct,
    spectral_norm,
    truncated_lipnorm,
    truncation_defect,
    vector_state,
    word_length,
)

from oracles import averaging_check, brute_distance, random_psd, truncated_derivative

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)
H3 = Heisenberg()


def _verdict(capsys, label, check):
    try:
        check()
    except AssertionError as exc:
        with capsys.disabled():
            print(f"FAIL  {label}  [{exc}]")
        raise
    with capsys.disabled():
        print(f"PASS  {label}")


def _rational_element(group, radius, rng, denom=32):
    f = random_element(group, radius, rng)
    return AlgebraElement(
        group,
        {
            g: Fraction(int(round(v.real * denom)), denom)
            for g, v in f.items()
            if round(v.real * denom) != 0
        },
    )


def test_overlap_kernel_closed_form_on_the_line(capsys):
    def check():
        for lam in range(1, 9):
            kern = fejer_kernel(Z1, lam)
            n = 2 * lam + 1
            for k in range(-2 * lam, 2 * lam + 1):
                want = Fraction(n - abs(k), n)
                assert kern((k,)) == want, f"lam={lam} k={k}"
            assert kern((2 * lam + 1,)) == 0, f"lam={lam} outside"

    _verdict(
        capsys,
        "overlap kernel on Z equals (2L+1-|k|)/(2L+1) exactly, L=1..8",
        check,
    )


def test_commutator_blind_spot_at_double_radius(capsys):
    def check():
        for lam in range(1, 7):
            T = compress(delta(Z1, (2 * lam,)), lam)
            C = dirac_commutator(T)
            assert np.all(C == 0), f"lam={lam} commutator not zero"
            lip = truncated_lipnorm(T, 1)
            assert abs(lip - 2 * lam) <= 1e-12, f"lam={lam} lip={lip}"

    _verdict(
        capsys,
        "length-commutator vanishes on the double-radius shift while its "
        "seminorm is 2L, L=1..6",
        check,
    )


def test_translate_averaging_identity(capsys):
    def check():
        rng = np.random.default_rng(100)
        worst = 0.0
        for grp in (Z2, H3):
            for lam in (1, 2, 3):
                for _ in range(20):
                    T = random_selfadjoint(grp, lam, rng)
                    xi = {
                        g: complex(*rng.standard_normal(2))
                        for g in ball(grp, 1)
                        if rng.random() < 0.85
                    }
                    xi[grp.identity()] = complex(*rng.standard_normal(2))
                    resid = averaging_check(T, xi, pad=lam + 1)
                    worst = max(worst, resid)
        assert worst <= 1e-10, f"worst residual {worst:.3e}"

    _verdict(
        capsys,
        "translate-averaging identity residual <= 1e-10 on 20 random pairs "
        "per (group, L), plane and Heisenberg, L=1..3",
        check,
    )


def test_reconstruction_preserves_positivity(capsys):
    def check():
        rng = np.random.default_rng(101)
        worst = 0.0
        for grp, lam in ((Z1, 2), (Z2, 2), (H3, 2)):
            for _ in range(20):
                T = random_psd(grp, lam, rng)
                f = reconstruct(T)
                for radius in range(1, lam + 4):
                    eig = float(np.linalg.eigvalsh(materialize(compress(f, radius))).min())
                    worst = min(worst, eig)
        assert worst >= -1e-10, f"most negative eigenvalue {worst:.3e}"

    _verdict(
        capsys,
        "reconstructions of 20 positive operators per group stay positive "
        "in every compression up to radius L+3 (eigs >= -1e-10)",
        check,
    )


def test_smoothing_l2_error_inequality(capsys):
    def check():
        rng = np.random.default_rng(102)
        for grp in (Z2, H3):
            for lam in (2, 3, 4, 5):
                eps = float(fejer_kernel(grp, lam).folner_epsilon)
                for _ in range(50):
                    f = random_element(grp, lam + 2, rng)
                    lhs = l2_norm(f - fejer_apply(f, lam)) ** 2
                    rhs = eps * sum(
                        word_length(grp, g) ** 2 * abs(complex(v)) ** 2
                        for g, v in f.items()
                        if g != grp.identity()
                    )
                    assert lhs <= rhs + 1e-12, f"{grp.name} lam={lam}: {lhs} > {rhs}"

    _verdict(
        capsys,
        "smoothing error ||f - Kf||^2 <= eps * weighted mass for 50 random f "
        "per (group, L), plane and Heisenberg, L=2..5",
        check,
    )


def test_boundary_kernel_inequality_exact(capsys):
    def check():
        for grp in (Z2, H3):
            for lam in range(1, 7):
                kern = fejer_kernel(grp, lam)
                eps = kern.folner_epsilon
                double = ball(grp, 2 * lam)
                for x in double:
                    lhs = 1 - kern(x)
                    assert lhs <= double.length_of(x) * eps, f"{grp.name} lam={lam} x={x}"

    _verdict(
        capsys,
        "exact rational bound 1 - K(x) <= len(x) * eps for every x in the "
        "double ball, plane and Heisenberg, L=1..6",
        check,
    )


def test_compression_norms_follow_path_spectrum(capsys):
    def check():
        f = delta(Z1, (1,)) + delta(Z1, (-1,))
        prev = -1.0
        for radius in range(1, 13):
            got = spectral_norm(materialize(compress(f, radius)))
            want = 2 * math.cos(math.pi / (2 * radius + 2))
            assert abs(got - want) <= 1e-10, f"R={radius}: {got} vs {want}"
            assert got > prev, f"R={radius}: not increasing"
            prev = got

    _verdict(
        capsys,
        "two-sided shift compression norms equal 2cos(pi/(2R+2)) within "
        "1e-10 and increase monotonically, R=1..12",
        check,
    )


def test_round_trip_defect_formula(capsys):
    def check():
        for lam in range(1, 9):
            res = truncation_defect(compress(delta(Z1, (1,)), lam), 1)
            want = 1 / (2 * lam + 1)
            assert abs(res.defect_norm - want) <= 1e-12, f"lam={lam}"

    _verdict(
        capsys,
        "round-trip defect of the unit shift equals 1/(2L+1) within 1e-12, "
        "L=1..8",
        check,
    )


def test_epsilon_constants_halve_on_the_line(capsys):
    def check():
        radii = (2, 4, 8, 16)
        fulls = {}
        truncs = {}
        for lam in radii:
            p_full = SearchParams(seed=0)
            p_trunc = SearchParams(seed=0)
            fulls[lam] = epsilon_full(Z1, lam, 2, p_full)
            truncs[lam] = epsilon_truncated(Z1, lam, 2, p_trunc)
        assert fulls[16] <= fulls[2] / 2, f"eps_full: {fulls}"
        assert truncs[16] <= truncs[2] / 2, f"eps_trunc: {truncs}"
        ghs = [gh_bound(fulls[lam], truncs[lam]) for lam in radii]
        assert all(a > b for a, b in zip(ghs, ghs[1:])), f"gh bounds: {ghs}"

    _verdict(
        capsys,
        "on Z with s=2 both epsilon constants at L=16 are at most half "
        "their L=2 values and the distance bound strictly decreases over "
        "L=2,4,8,16 at a fixed search budget",
        check,
    )


def test_state_distance_solver_certified(capsys):
    def check():
        phi = vector_state(Z1, {(0,): 1.0, (1,): 1.0}, lam=1)
        psi = vector_state(Z1, {(0,): 1.0}, lam=1)
        res = lip_distance(phi, psi, s=1, lam=1)
        target = 1 / math.sqrt(2)
        assert res.value >= target - 1e-8, f"value {res.value}"
        oracle = brute_distance(phi, psi, s=1, lam=1)
        assert abs(res.value - oracle) <= 1e-4, f"gap {abs(res.value - oracle):.2e}"

        rng = np.random.default_rng(103)
        for i in range(10):
            a = random_vector_state(Z1, 1, rng)
            b = (
                random_density_state(Z1, 1, rng)
                if i % 2
                else random_vector_state(Z1, 1, rng)
            )
            d_ab = lip_distance(a, b, s=1, lam=1).value
            d_ba = lip_distance(b, a, s=1, lam=1).value
            assert abs(d_ab - d_ba) <= 1e-8, f"pair {i}: asymmetric"
            assert lip_distance(a, a, s=1, lam=1).value <= 1e-8, f"pair {i}: self"
            gap = abs(d_ab - brute_distance(a, b, s=1, lam=1))
            assert gap <= 1e-4, f"pair {i}: oracle gap {gap:.2e}"

    _verdict(
        capsys,
        "distance solver attains 1/sqrt(2) on the two-point instance within "
        "1e-8, matches the grid oracle within 1e-4, and is symmetric with "
        "zero self-distance on 10 random pairs",
        check,
    )


def test_derivative_intertwining_exact(capsys):
    def check():
        rng = np.random.default_rng(104)
        for grp in (Z1, Z2, H3):
            done = 0
            lam = 1
            while done < 20:
                f = _rational_element(grp, 2 * lam, rng)
                if len(f) == 0:
                    continue
                T = compress(f, lam)
                for s in (1, 2):
                    assert compress(derivative(f, s), lam) == truncated_derivative(
                        T, s
                    ), f"{grp.name} lam={lam} s={s} compress"
                    assert reconstruct(truncated_derivative(T, s)) == derivative(
                        reconstruct(T), s
                    ), f"{grp.name} lam={lam} s={s} reconstruct"
                assert reconstruct(T) == fejer_apply(f, lam), f"{grp.name} lam={lam}"
                done += 1
                lam = lam % 3 + 1

    _verdict(
        capsys,
        "compression and reconstruction intertwine the derivative exactly on "
        "20 rational inputs per group, L<=3",
        check,
    )


def test_plane_boundary_ratios_and_decay_exponent(capsys):
    def check():
        rep = growth_report(Z2, 33)
        for lam in range(1, 33):
            want = Fraction(4 * lam + 4, 2 * lam * lam + 2 * lam + 1)
            assert rep.ratio_at(lam) == want, f"lam={lam}"
        beta = growth_report(Z2, 65, fit_min=4).fitted_beta
        assert 0.9 <= beta <= 1.1, f"beta={beta}"

    _verdict(
        capsys,
        "plane boundary ratios equal (4L+4)/(2L^2+2L+1) exactly for L=1..32 "
        "and the fitted decay exponent lies in [0.9, 1.1]",
        check,
    )
