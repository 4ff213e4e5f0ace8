"""Random channel and generator factories for the tests, benchmarks and scripts.

Everything takes an explicit numpy Generator so runs are reproducible from a
seed. The trace-preserving samplers draw small off-diagonal weights and let
complete_tp fill the diagonal; a fixup nudges one weight so that rows 0 and 1
of sum_a p_a sigma_a², which no diagonal weight can balance, agree first.
"""

from __future__ import annotations

import numpy as np

from gmchan.channels import EigenChannel, KrausChannel, _kernel_table, _square_sums, complete_tp
from gmchan.errors import NegativeCoefficient
from gmchan.generators import EigenGenerator, LindbladGenerator

_MAX_TRIES = 200


def random_complex_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Density matrix from G G† / Tr, full rank almost surely."""
    g = random_complex_matrix(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _tp_fixup(off: np.ndarray) -> None:
    # Completion requires rows 0 and 1 of sum_a p_a sigma_a² to agree (see
    # complete_tp): raise the lower row's last weight; at n = 2 they agree.
    s = _square_sums(off)
    off[int(s[1] < s[0]), -1] += abs(s[1] - s[0])


def random_tp_kraus(
    rng: np.random.Generator,
    n: int,
    off_scale: float = 0.04,
    p11_range: tuple = (0.05, 0.15),
) -> KrausChannel:
    """Nonnegative trace-preserving weight table with small off-diagonals."""
    for _ in range(_MAX_TRIES):
        off = rng.uniform(0.0, off_scale, size=(n, n))
        np.fill_diagonal(off, 0.0)
        _tp_fixup(off)
        p11 = rng.uniform(*p11_range)
        try:
            ch = complete_tp(off, p11)
        except NegativeCoefficient:
            continue
        if np.all(ch.p >= 0):
            return ch
    raise NegativeCoefficient(
        f"no nonnegative completion found in {_MAX_TRIES} draws at n={n}"
    )


def random_kf_ev_admissible(rng: np.random.Generator, n: int) -> KrausChannel:
    """TP weight table whose column sums p_kl + p_lk are column-constant,
    so the channel diagonalizes in the matrix basis."""
    for _ in range(_MAX_TRIES):
        off = np.zeros((n, n))
        for l in range(1, n):
            total = rng.uniform(0.01, 0.06)
            for k in range(l):
                delta = rng.uniform(-0.5, 0.5) * total / 2
                off[k, l] = total / 2 + delta
                off[l, k] = total / 2 - delta
        # column-constant p~ already balances rows 0 and 1, no fixup needed
        p11 = rng.uniform(0.05, 0.15)
        try:
            ch = complete_tp(off, p11)
        except NegativeCoefficient:
            continue
        if np.all(ch.p >= 0):
            return ch
    raise NegativeCoefficient(
        f"no admissible nonnegative completion in {_MAX_TRIES} draws at n={n}"
    )


def random_ev_channel(
    rng: np.random.Generator, n: int, lo: float = -1.5, hi: float = 1.5
) -> EigenChannel:
    """Unconstrained eigenvalue table in [lo, hi], unit trace eigenvalue."""
    lam = rng.uniform(lo, hi, size=(n, n))
    lam[0, 0] = 1.0
    return EigenChannel(n=n, lam=lam)


def random_noncp_ev(rng: np.random.Generator, n: int) -> EigenChannel:
    """Eigenvalue table certified not CP.

    One antisymmetric pair is pushed past the bound that the corresponding
    2x2 Choi block imposes, so the block has a definitely negative eigenvalue.
    """
    lam = rng.uniform(-0.5, 0.5, size=(n, n))
    lam[0, 0] = 1.0
    i = int(rng.integers(0, n - 1))
    j = int(rng.integers(i + 1, n))
    d = np.diagonal(lam) @ _kernel_table(n).block_rows[:, n + j]  # d_j of `_psd_blocks`
    v = max(d, 0.0) + 0.1 + rng.uniform(0.0, 0.5)
    lam[i, j] = v
    lam[j, i] = -v
    return EigenChannel(n=n, lam=lam)


def random_ev_generator(
    rng: np.random.Generator, n: int, lo: float = -2.0, hi: float = 0.5
) -> EigenGenerator:
    eta = rng.uniform(lo, hi, size=(n, n))
    eta[0, 0] = 0.0
    return EigenGenerator(n=n, eta=eta)


def random_lf_ev_admissible(
    rng: np.random.Generator, n: int, nonnegative: bool = False
) -> LindbladGenerator:
    """Rate table whose symmetrized off-diagonal columns are constant, so the
    generator diagonalizes in the matrix basis. Diagonal rates are free."""
    lo = 0.0 if nonnegative else -0.3
    g = np.zeros((n, n))
    for l in range(1, n):
        total = rng.uniform(0.05, 0.6)
        for k in range(l):
            delta = rng.uniform(-0.5, 0.5) * (total / 2 if nonnegative else 1.0)
            g[k, l] = total / 2 + delta
            g[l, k] = total / 2 - delta
    for k in range(1, n):
        g[k, k] = rng.uniform(lo, 0.6)
    return LindbladGenerator(n=n, gamma=g)
