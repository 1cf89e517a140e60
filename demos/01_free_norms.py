"""Free-space norms of molecules, three ways.

A molecule is a zero-sum coefficient vector on the points of a finite
pointed metric space.  Its free-space norm is the cheapest way to write it
as a weighted sum of elementary differences delta(x) - delta(y), where an
edge of weight w and length d costs |w|^p * d^p.

At p = 1 this is the classical transportation cost, solved exactly by
the network simplex, which also emits a 1-Lipschitz dual witness.
Below p = 1 the cost is concave, mass consolidates, and the exact optimum
is the cheapest spanning-tree support, found by a subset DP.
"""

import numpy as np

from lipfree import (
    Molecule,
    free_norm_exact_small,
    free_norm_p1,
    free_norm_upper,
    line_space,
)

# three points on the line; the base point is 0
space = line_space([0.0, 1.0, 1.1])
m = Molecule.balanced({1: 1.0, 2: 1.0}, base=0)
print("molecule: +1 at x=1, +1 at x=1.1 (balanced at the base)")

# p = 1: transport both unit masses straight to the base
res1 = free_norm_p1(space, m)
print(f"\np=1 transportation norm : {res1.value:.6f}")
print(f"  optimal plan          : {res1.representation}")
print(f"  dual witness f        : {np.round(res1.certificate, 6)}")
pairing = float(np.dot(m.vector(space.n), res1.certificate))
print(f"  certificate pairing   : {pairing:.6f} (gap {abs(pairing - res1.value):.2e})")

# p = 1/2: consolidation wins -- ship the far mass to its neighbor first,
# then move the doubled mass as one shipment
res_half = free_norm_exact_small(space, m, p=0.5)
print(f"\np=1/2 exact norm        : {res_half.value:.6f}")
print(f"  optimal forest        : {res_half.representation}")
direct = (1.0 * 1.0 ** 0.5 + 1.0 * 1.1 ** 0.5) ** 2
print(f"  direct-to-base cost   : {direct:.6f}  (worse: no consolidation)")

# the support upper bound runs the same DP on the support alone, which here
# is the whole space, so it finds the same tree
up = free_norm_upper(space, m, p=0.5)
print(f"  support upper bound   : {up.value:.6f} ({up.exactness})")

# the norm is nonincreasing in p for a fixed molecule
print("\nnorm as a function of p (nonincreasing):")
for p in (0.25, 0.5, 0.75, 1.0):
    v = free_norm_exact_small(space, m, p).value
    print(f"  p={p:4.2f}: {v:.6f}")
