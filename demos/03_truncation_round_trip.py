"""Compressing to a ball and reconstructing back.

Compression restricts an algebra element to a finite symbol; reconstruction
weights the symbol with the overlap kernel and lands back in the algebra.
The round trip is exactly the kernel smoothing, and its defect on the unit
shift has the closed form 1/(2L+1).  The naive length-commutator, by
contrast, is blind to symbols at the double radius.
"""

from spectrunc import (
    FreeAbelian,
    compress,
    delta,
    dirac_commutator,
    reconstruct,
    spectral_norm,
    truncated_lipnorm,
    truncation_defect,
)

z1 = FreeAbelian(1)

print("Round-trip defect of the unit shift on Z:")
for lam in (1, 2, 4, 8):
    res = truncation_defect(compress(delta(z1, (1,)), lam), 1)
    print(
        f"  L={lam:2d}: defect {res.defect_norm:.6f} "
        f"(closed form {1 / (2 * lam + 1):.6f}), seminorm {res.lipnorm:.3f}"
    )

print()
print("Blind spot of the naive commutator at the double radius:")
for lam in (2, 4):
    T = compress(delta(z1, (2 * lam,)), lam)
    c_norm = spectral_norm(dirac_commutator(T))
    lip = truncated_lipnorm(T, 1)
    print(f"  L={lam}: commutator norm {c_norm:.1f}, true seminorm {lip:.1f}")

print()
print("Reconstruction shrinks symbols by their kernel weight:")
f = delta(z1, (1,)) + delta(z1, (3,), 2.0)
r = reconstruct(compress(f, 2))
for g in sorted(r.support):
    print(f"  coefficient at {g}: {complex(r[g]).real:.4f}")
