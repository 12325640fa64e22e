"""
Extremality of the base measure, tested by linear algebra
=========================================================

Whether the base measure can be split into two distinct fixed points is
a finite question: solutions of one linear system are exactly the
functions that conditioning cannot distinguish from their shifted
selves.  Dimension one means only constants solve it and the measure is
an extreme point; dimension two or more yields an explicit convex split.
"""

import numpy as np

from shiftpath import (
    CylinderFunction,
    check_fixed_point,
    decompose,
    fixed_density_measure,
    relative_ergodicity_dimension,
)
from shiftpath.subshift import build_subshift

# Connected transition graph: extreme point, nothing to decompose.
full = build_subshift([[1, 1], [1, 1]])
v = CylinderFunction.constant(full, 1.0)
mu = fixed_density_measure(full, v)
rep = relative_ergodicity_dimension(full, mu, v, depth=2)
print("full shift: solution dimension", rep.solution_dim,
      " extremal:", rep.extremal_certificate)

# Two disconnected 2-symbol blocks: the walk can never cross between
# {1,2} and {3,4}, so the flat measure averages two distinct components.
block = build_subshift(
    [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
)
vb = CylinderFunction.constant(block, 1.0)
mub = fixed_density_measure(block, vb)
rep = relative_ergodicity_dimension(block, mub, vb, depth=1)
print("\nblock shift: solution dimension", rep.solution_dim)

dec = decompose(block, mub, vb, depth=1)
print("mixing coefficient lambda =", dec.lam)
print("component 1 symbol masses:", dec.mu1.masses_at(1))
print("component 2 symbol masses:", dec.mu2.masses_at(1))

mix = dec.lam * dec.mu1.masses_at(2) + (1 - dec.lam) * dec.mu2.masses_at(2)
print("recombination error:", f"{np.abs(mix - mub.masses_at(2)).max():.2e}")
print("components are fixed points:",
      check_fixed_point(block, vb, dec.mu1, 2) < 1e-11,
      check_fixed_point(block, vb, dec.mu2, 2) < 1e-11)

# The same machinery reports dimension 1 for anything irreducible, here
# the golden-mean shift with a nonflat weight.
golden = build_subshift([[1, 1], [1, 0]])
w = CylinderFunction.from_table(
    golden, 2, {(1, 1): 4.0 / 3.0, (2, 1): 2.0 / 3.0, (1, 2): 1.0}
)
mug = fixed_density_measure(golden, w)
print("\ngolden-mean, nonflat weight:",
      relative_ergodicity_dimension(golden, mug, w, depth=2).solution_dim,
      "dimensional solution space")
