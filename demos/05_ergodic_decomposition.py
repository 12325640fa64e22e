"""
Extremality of the base measure, and its ergodic decomposition
==============================================================

Whether the base measure can be split into distinct fixed points is a
finite question: solutions of one linear system are exactly the
functions that conditioning cannot distinguish from their shifted
selves, on the words the base charges.  They are spanned by the
absorption probabilities a_c of a walk on those words into its closed
classes c.  One class means only constants solve it and the measure is
an extreme point; with more, each class gives a component
mu_c = (a_c / lam_c) mu0 of weight lam_c, and mu0 = sum_c lam_c mu_c.  The question is decided once, at the
conditioning depth m that resolves the weight and the base density: the
walk at any deeper depth is a lift of the walk at m, so the answer holds
at every depth, and asking at any depth costs the depth-m solve.
"""

import numpy as np

from shiftpath import (
    CylinderFunction,
    DensityMeasure,
    check_fixed_point,
    decompose,
    fixed_density_measure,
    relative_ergodicity_dimension,
    strongly_invariant_measure,
)
from shiftpath.subshift import build_subshift

# Connected transition graph: extreme point, nothing to decompose.
full = build_subshift([[1, 1], [1, 1]])
v = CylinderFunction.constant(full, 1.0)
mu = fixed_density_measure(full, v)
rep = relative_ergodicity_dimension(full, mu, v)
print("full shift: solution dimension", rep.solution_dim,
      " extremal:", rep.extremal_certificate)

# Two disconnected 2-symbol blocks: the walk can never cross between
# {1,2} and {3,4}, so the flat measure averages two distinct components.
block = build_subshift(
    [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
)
vb = CylinderFunction.constant(block, 1.0)
mub = fixed_density_measure(block, vb)
rep = relative_ergodicity_dimension(block, mub, vb)
print("\nblock shift: solution dimension", rep.solution_dim)

dec = decompose(block, mub, vb)
print("component weights lambda_c =", dec.weights)
for c, comp in enumerate(dec.components, start=1):
    print(f"component {c} symbol masses:", comp.masses_at(1))

mix = sum(lam * comp.masses_at(2) for lam, comp in zip(dec.weights, dec.components))
print("recombination error:", f"{np.abs(mix - mub.masses_at(2)).max():.2e}")
print("components are fixed points:",
      *(check_fixed_point(block, vb, comp, 2) < 1e-11 for comp in dec.components))

# A base on one block only is ergodic: the words of the other block carry
# no mass, so they are null and leave the walk.  The certificate is solved
# at the conditioning depth and holds at every depth: depth 14, or any
# other, costs the depth-m solve.
one_block = DensityMeasure(CylinderFunction(block, 1, np.array([2.0, 2.0, 0.0, 0.0])),
                           strongly_invariant_measure(block))
rep = relative_ergodicity_dimension(block, one_block, vb)
print(f"\nbase on one block, conditioning depth {rep.depth}: solution dimension",
      rep.solution_dim, " extremal:", rep.extremal_certificate)

# The same machinery reports dimension 1 for anything irreducible, here
# the golden-mean shift with a nonflat weight.
golden = build_subshift([[1, 1], [1, 0]])
w = CylinderFunction.from_table(
    golden, 2, {(1, 1): 4.0 / 3.0, (2, 1): 2.0 / 3.0, (1, 2): 1.0}
)
mug = fixed_density_measure(golden, w)
print("\ngolden-mean, nonflat weight:",
      relative_ergodicity_dimension(golden, mug, w).solution_dim,
      "dimensional solution space")
