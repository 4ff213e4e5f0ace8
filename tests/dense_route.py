"""Dense reference actions of the weight and rate forms, for the tests only.

They sum over all n² basis matrices, O(n⁵) per matrix, independently of the
superoperator blocks through which `apply_kf` and `apply_lf` act.
"""

import numpy as np

from gmchan.basis import full_basis


def sandwich(w, X):
    """sum_a w_a sigma_a X sigma_a for one matrix (n, n) or a stack (..., n, n)."""
    stack = full_basis(w.shape[0]).stack
    return np.einsum("a,aij,...jk,akl->...il", np.ravel(w), stack, X, stack, optimize=True)


def rate_action(g, X):
    """sandwich(g, X) - (S X + X S)/2 with S = sum_a g_a sigma_a²."""
    stack = full_basis(g.shape[0]).stack
    S = np.einsum("a,aij,ajk->ik", np.ravel(g), stack, stack)
    return sandwich(g, X) - 0.5 * (S @ X + X @ S)
