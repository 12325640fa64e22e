"""
Weighted preimage averaging and its fixed functions
===================================================

Attaching a nonnegative weight to each inverse branch turns preimage
averaging into a positive operator on cylinder functions.  When the
averaged weight never exceeds one, iterating from the constant function
one descends pointwise to a fixed function h, which the library solves
for directly.  That h is the density of the measure every later script
builds on.
"""

import numpy as np

from shiftpath import (
    CylinderFunction,
    apply_transfer,
    build_subshift,
    iterate_fixed_function,
    left_fixed_functional,
    strongly_invariant_measure,
    transfer_matrix,
)

shift = build_subshift([[1, 1], [1, 1]])
v = CylinderFunction.from_table(shift, 1, {(1,): 1.5, (2,): 0.5})

# One application of the operator, written out on depth-1 functions:
# each output value averages v*f over the two inverse branches.
f = CylinderFunction.from_table(shift, 1, {(1,): 1.0, (2,): 0.0})
print("f values:          ", f.values)
print("averaged v*f values:", apply_transfer(shift, v, f).values)

# The same operator as an explicit matrix on depth-1 values.
print("operator matrix:\n", transfer_matrix(shift, v, 1))

# The limit of the iterates from the constant one, solved directly.
res = iterate_fixed_function(shift, v)
print("\nstatus:", res.status)
print("fixed function h:", res.h.values, " residual", f"{res.residual:.2e}")

# The matching left functional, returned as normalized cylinder masses.
nu = left_fixed_functional(shift, v)
print("left functional:", nu.masses_at(1), " (3/4, 1/4 for this weight)")

# A weight whose average loses mass drives the iterates to zero.
half = CylinderFunction.constant(shift, 0.5)
print("\nV = 1/2 status:", iterate_fixed_function(shift, half).status)

# Duality check: integrating the running weight product against the
# invariant measure agrees with iterating the operator.
rho = strongly_invariant_measure(shift)
g = CylinderFunction.from_table(shift, 1, {(1,): 2.0, (2,): -1.0})
lhs = rho.integrate(apply_transfer(shift, v, apply_transfer(shift, v, g)))
print("\ntwo operator steps, integrated:", lhs)

# A strictly sub-normalized random weight loses a little mass on every
# step, so its limit is zero and the status says so.
rng = np.random.default_rng(3)
w = CylinderFunction(shift, 2, rng.uniform(0.2, 1.8, 4))
w = w * (0.9 / apply_transfer(shift, w, CylinderFunction.constant(shift, 1.0)).values.max())
print("strictly sub-normalized random weight:",
      iterate_fixed_function(shift, w).status)
