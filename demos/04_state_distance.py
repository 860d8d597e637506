"""State distances induced by the truncated Lipschitz seminorm.

The distance between two states is the largest gap they can show on a
self-adjoint operator of seminorm at most one.  The solver runs ADMM on the
trace-norm dual of that convex problem, accelerated by safeguarded Anderson
mixing (each evaluation is one eigendecomposition, and a mixed point is kept
only if it shrinks the residual), and reports both ends of a bracket: a
value attained by a feasible witness (a certified lower bound) and a dual
certificate (a certified upper bound).  The witness's seminorm shows it is
feasible, and its value is what it attains on the two states.
"""

import math

import numpy as np

from spectrunc import (
    FreeAbelian,
    lip_distance,
    random_vector_state,
    state_eval,
    truncated_lipnorm,
    vector_state,
)

z1 = FreeAbelian(1)

print("Two-point instance on Z (L=1):")
phi = vector_state(z1, {(0,): 1.0, (1,): 1.0}, lam=1)
psi = vector_state(z1, {(0,): 1.0}, lam=1)
res = lip_distance(phi, psi, s=1, lam=1)
print(f"  solver value    {res.value:.12f} ({res.status})")
print(f"  solver upper    {res.upper:.12f}")
print(f"  exact optimum   {1 / math.sqrt(2):.12f}")
print(f"  witness seminorm {truncated_lipnorm(res.witness, 1):.12f} (feasible <= 1)")
attained = (state_eval(phi, res.witness) - state_eval(psi, res.witness)).real
print(f"  witness attains  {attained:.12f}")

print()
print("Random pairs, certified solver brackets:")
rng = np.random.default_rng(2)
for i in range(4):
    a = random_vector_state(z1, 1, rng)
    b = random_vector_state(z1, 1, rng)
    got = lip_distance(a, b, s=1, lam=1)
    print(f"  pair {i}: solver [{got.value:.9f}, {got.upper:.9f}] ({got.status})")
