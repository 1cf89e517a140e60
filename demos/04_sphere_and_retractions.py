"""Geometric maps on embedded samples: retractions, outward maps, spheres.

The radial retraction pulls points outside a ball back to its boundary
along their ray and is 2-Lipschitz; the outward map pushes inner points to
the boundary while scaling their delta, giving a 3^{1/p}-Lipschitz map
into the free space over the outer part.  Stereographic projection sends
height-h circles to radius sqrt((1+h)/(1-h)) circles, mapping the
three-quarter sphere onto the sqrt(3) ball.
"""

import math

import numpy as np

from lipfree import (
    SphereSample,
    build_space,
    mirror_band_residual,
    outward_amenability_map,
    radial_retraction,
    stereographic,
)
from lipfree.generators import annulus_rays, sphere_fibonacci

# sigma-closed polar sample: rays through the origin at shared radii
sample = annulus_rays(rays=12, radii=np.linspace(0.2, 2.0, 10),
                      include_origin=True)
print(f"polar sample: {sample.n} points")

rep = radial_retraction(sample, S=1.0)
print(f"radial retraction onto the unit ball: measured Lip "
      f"{rep.measured_lip:.4f} <= 2 (excess {rep.slack:.1e}), "
      f"idempotent={rep.idempotent}")

# outward map on the sample without the origin, base on the boundary
ring = annulus_rays(rays=12, radii=(0.25, 0.5, 1.0, 2.0), include_origin=False)
norms = np.sqrt((ring.coords ** 2).sum(axis=1))
ring = build_space(ring.coords, "euclidean",
                   base=int(np.nonzero(np.isclose(norms, 1.0))[0][0]))
for p in (1.0, 0.5):
    ext = outward_amenability_map(ring, S=1.0, p=p)
    print(f"outward map p={p}: measured {ext.measured_lip:.4f} "
          f"<= 3^(1/p) = {3.0 ** (1 / p):.4f}")

# stereographic projection of a 500-point sphere sample
v = sphere_fibonacci(d=2, n=500)
stereo = stereographic(SphereSample(v))
print(f"\nstereographic projection: max radius error {stereo.max_abs_error:.2e}, "
      f"injective={stereo.injective}")
half = stereographic(SphereSample(np.array([[math.sqrt(3) / 2, 0.0, 0.5]])))
print(f"height 1/2 maps to radius {half.radii[0]:.12f} (sqrt(3) = "
      f"{math.sqrt(3):.12f})")
band = v[v[:, -1] <= 0.0]
print(f"lower band vs mirrored band distance residual: "
      f"{mirror_band_residual(SphereSample(band)):.1e}")
