"""The chain-solver tests again, with both of scipy's fallbacks in place of numpy.

Two kernels of `invariant` fall back to scipy.  The closed-class search
`_components` runs a numpy colour search and calls scipy's strong
components only past SEARCH_ROUNDS rounds; every fixed vector is
iterated, and takes the sparse LU `_lu_solve` only when the iteration
gives up, which almost no chain of the test suite does.  This module
collects the tests of `test_invariant.py`, `test_transfer.py` and
`test_extremality.py`, the property tests of the chain solver and the
extremality solve against the exact oracle and a dense eigenvector, nu
and rho across a weak join, and the pin of the fixed density against h
and nu, and runs them with no iteration budget and no search rounds,
so that every closed-class search, absorption and stationary vector
goes through scipy.  Their own modules run them at the defaults.  The
reachability mask (`invariant._reaching`) reads neither: it is one
breadth-first search at every size, the same here as there.
"""

import pytest

import test_extremality
import test_invariant
import test_properties
import test_transfer
from shiftpath import invariant

DENSE_ORACLE_TESTS = (
    "test_left_functional_is_the_fixed_probability_vector",
    "test_fixed_function_is_the_limit_of_the_monotone_loop",
    "test_fixed_density_is_h_and_h_pairs_to_one_with_nu",
    "test_left_functional_matches_the_exact_chain",
    "test_non_unique_means_a_null_space_above_one",
    "test_nu_and_rho_hold_across_a_weak_join",
    "test_extremality_matches_the_exact_null_space_at_every_scale",
    "test_solved_bases_need_no_mass_floor",
)

for _module in (test_invariant, test_transfer, test_extremality):
    globals().update({name: test for name, test in vars(_module).items() if name.startswith("test_")})
globals().update({name: getattr(test_properties, name) for name in DENSE_ORACLE_TESTS})


@pytest.fixture(autouse=True, scope="module")
def every_chain_sparse():
    # module scope: hypothesis refuses function-scoped fixtures around @given tests
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariant, "ITERATION_BUDGET", 0)
        patch.setattr(invariant, "SEARCH_ROUNDS", -1)
        yield
