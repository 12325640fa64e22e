"""
Consistent marginal families and exact path sampling
====================================================

A base measure that is a fixed point of the weighted pushforward extends
to a family of marginals, one per level, that fit together consistently:
level n+1 pushes down to level n.  Trajectories through the levels can be
sampled exactly, because conditioning on the record so far is a Markov
kernel on cylinder words.
"""

import numpy as np

from shiftpath import (
    CylinderFunction,
    DensityMeasure,
    build_path_measure,
    check_consistency,
    check_quasi_invariance,
    empirical_check,
    sample_paths,
    strongly_invariant_measure,
)
from shiftpath.subshift import build_subshift

shift = build_subshift([[1, 1], [1, 1]])

# Weight chosen so the one-step prepend probabilities are exactly the
# column-stochastic matrix P = [[1/3, 1/2], [2/3, 1/2]].
P = np.array([[1.0 / 3.0, 0.5], [2.0 / 3.0, 0.5]])
v = CylinderFunction.from_table(
    shift, 2, {(a, j): 2.0 * P[a - 1, j - 1] for a in (1, 2) for j in (1, 2)}
)

rho = strongly_invariant_measure(shift)
mu0 = DensityMeasure(CylinderFunction.constant(shift, 1.0), rho)
pm = build_path_measure(shift, v, mu0)

print("level-n total masses:", [round(pm.marginal(n).total_mass(), 12) for n in range(5)])
print("consistency residual (n=3, depth=2):", f"{check_consistency(pm, 3, 2):.2e}")
print("quasi-invariance residual:", f"{check_quasi_invariance(pm, 2, 5):.2e}")

# Draw 50000 trajectories of 3 prepend steps each, reproducibly.
batch = sample_paths(pm, n_steps=3, n_samples=50000, base_depth=2, seed=42)
print("\nfirst three sampled paths (base word, then prepended symbols):")
for base, prepends in zip(batch.base_words[:3].tolist(), batch.prepends[:3].tolist()):
    print("  base", "".join(map(str, base)), " prepends", prepends)

# Empirical frequencies of the level-n coordinate against the exact
# marginal, with a 3-sigma multinomial band.
for n in (1, 2, 3):
    rep = empirical_check(pm, n, 50000, depth=2, seed=42)
    print(f"level {n}: max deviation {rep.max_dev:.5f} "
          f"vs 3-sigma bound {rep.sigma_bound:.5f} -> passed={rep.passed}")

# Worker counts change nothing: chunks consume disjoint slices of one
# pre-drawn uniform block.
again = sample_paths(pm, n_steps=3, n_samples=50000, base_depth=2, seed=42, workers=4)
print("\nidentical with 4 workers:",
      np.array_equal(batch.base_words, again.base_words)
      and np.array_equal(batch.prepends, again.prepends))
