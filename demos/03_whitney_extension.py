"""Extending Lipschitz structure from a doubling subset.

A Whitney cover of the complement of a subset N: dyadic shells by distance
to N, greedy nets of N at each scale, nearest-net cells, and half-scale
patches.  The derived weights define a map sending each outside point to a
convex combination of net anchors -- a Lipschitz map into the free space
over N that restricts to delta on N, with constant controlled by a power
of N's doubling bound.
"""

from lipfree import (
    amenability_defect,
    doubling_extension_map,
    linearization_residual,
    point_removal_map,
    weight_variation_check,
    whitney_cover,
)
from lipfree.generators import grid_zd

space = grid_zd(d=2, lo=0, hi=8)
net = sorted({i for i in range(space.n) if space.coords[i][0] <= 3}
             | {space.base})
print(f"9x9 sup-norm grid, subset = left half ({len(net)} of {space.n} points)")

system = whitney_cover(space, net)
print(f"\ndoubling bound of the subset : {system.doubling_value}")
print(f"overlap bound 3*D^4          : {system.overlap_bound:.0f}")
print(f"actual overlap histogram     : {system.overlap_histogram()}")
for check in system.checks:
    print(f"  {check.name:24s} measured {check.measured:.3g} "
          f"<= bound {check.bound:.3g}")

for p in (1.0, 0.5):
    ext = doubling_extension_map(space, net, p, system=system)
    crucial = weight_variation_check(system, p)
    print(f"\np={p}:")
    print(f"  measured Lipschitz constant : {ext.measured_lip:.3f}")
    print(f"  closed-form target          : {ext.lip_bound:.4g}")
    print(f"  weight-variation ratio      : {crucial.max_ratio:.4f} (<= 1)")
    print(f"  L_f o L_iota residual       : {linearization_residual(ext):.1e}")

# dropping a single point costs at most 2^(1/p)
rep = point_removal_map(space, x0=space.n - 1, p=0.5)
print(f"\nremoving one corner point: measured {rep.measured_lip:.3f} "
      f"<= 2^(1/p) = {rep.bound:.3f} (new base = point {rep.new_base})")

# at p = 1 the canonical inclusion of a subset is isometric
rep = amenability_defect(space, net[:10], 1.0, samples=40, seed=0)
print(f"\ninclusion defect at p=1: max ratio {rep.max_ratio:.9f} (isometric)")
