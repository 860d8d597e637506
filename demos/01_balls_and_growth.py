"""Word-metric balls and polynomial growth.

Enumerates balls in the integer lattices and the discrete Heisenberg group,
shows the word length of a few landmark elements from Heisenberg's closed
form, which needs no ball around them, and fits the polynomial
growth degree and the boundary decay exponent from exact ball sizes.
"""

from spectrunc import FreeAbelian, Heisenberg, ball, growth_report, word_length

for group in (FreeAbelian(1), FreeAbelian(2), Heisenberg()):
    sizes = [len(ball(group, r)) for r in range(7)]
    print(f"{group.name:12s} ball sizes r=0..6: {sizes}")

h3 = Heisenberg()
print()
print("Heisenberg landmarks:")
print(f"  generator (1,0,0)        length {word_length(h3, (1, 0, 0))}")
print(f"  commutator (0,0,1)       length {word_length(h3, (0, 0, 1))}")
print(f"  (2,-3,4)                 length {word_length(h3, (2, -3, 4))}")
print(f"  (0,0,400)                length {word_length(h3, (0, 0, 400))}")

print()
for group, lam_max in ((FreeAbelian(2), 40), (Heisenberg(), 16)):
    rep = growth_report(group, lam_max, fit_min=lam_max // 2)
    print(
        f"{group.name:12s} fitted growth degree {rep.fitted_degree:.3f}, "
        f"boundary decay exponent {rep.fitted_beta:.3f} "
        f"(fit window {rep.fit_window})"
    )
    shown = ", ".join(str(rep.ratio_at(r)) for r in (1, 2, 3, 4))
    print(f"{'':12s} first boundary ratios: {shown}")
