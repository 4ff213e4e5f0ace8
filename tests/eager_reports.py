"""The three CP checks with every diagnostic built eagerly, for the tests only.

The library decides each check from scalars and builds a report's
`diagnostics` on first read. These are the earlier eager forms, written as
they were: the sorted union of the Choi block spectra and the Hermiticity
defect assembled on every oracle call, the paper conditions as the doubled
block, spectrum and pair margins, and the pair dicts. The tests require the
reports to match them bit for bit.
"""

import numpy as np

from gmchan.channels import (
    KrausChannel,
    _block_margins,
    _choi_layout,
    _fill,
    _kernel_table,
    _read_only,
    _verdict,
)


def choi_blocks(ch):
    """Symmetrized block entries, sorted union spectrum and Hermiticity defect."""
    n = ch.n
    layout = _choi_layout(n)
    if isinstance(ch, KrausChannel):
        vals = _fill(layout, ch.p)
    else:  # M's sum of lam / Tr(sigma_a²), realigned
        vals = _fill(layout, ch.lam / layout.norms)[layout.realign]
    vals = vals / 2.0
    mirrored = vals[layout.mirror]
    defect = 2.0 * float(np.abs(vals - mirrored).max())
    vals = vals + mirrored
    pair = vals[n * n:].reshape(-1, 4)
    h0, h3 = pair[:, 0] / 2.0, pair[:, 3] / 2.0
    mid, radius = h0 + h3, np.hypot(h0 - h3, pair[:, 1])
    block = np.linalg.eigvalsh(vals[:n * n].reshape(n, n))
    return vals, np.sort(np.concatenate([block, mid - radius, mid + radius])), defect


def choi_of_channel(ch):
    """(entries, spectrum, min eigenvalue, defect) of the dense Choi matrix."""
    vals, spectrum, defect = choi_blocks(ch)
    layout = _choi_layout(ch.n)
    J = np.zeros((ch.n ** 2, ch.n ** 2), dtype=complex)
    J[layout.rows, layout.cols] = vals
    return _read_only(J), _read_only(spectrum), float(spectrum[0]), defect


def oracle(ch, tol):
    """(verdict, margin, diagnostics) of the oracle: the Choi spectrum's least entry."""
    _, spectrum, defect = choi_blocks(ch)
    low = float(_read_only(spectrum)[0])
    return _verdict(low, tol), low, {
        "spectrum": spectrum, "min_eigenvalue": low, "hermiticity_defect": defect}


def _blocks(lam):
    A, a_spectrum, pairs, margin = _block_margins(lam)
    return _read_only(A), _read_only(a_spectrum), _read_only(pairs), margin


def _pair_dict(n, pairs):
    return dict(zip(_kernel_table(n).pair_keys, pairs.tolist()))


def paper(ch, tol):
    """(verdict, margin, diagnostics) of the paper conditions, from the doubled arrays."""
    n = ch.n
    block, spectrum, pairs, _ = _blocks(ch.lam)
    shift = (n - 2.0) / n * ch.lam[0, 0]
    k = np.arange(n)
    with np.errstate(over="ignore"):
        A = 2.0 * block
        A[k, k] += shift
        a_spectrum = 2.0 * spectrum + shift
        pairs = 2.0 * pairs + shift
    margin = min(float(pairs.min()), float(a_spectrum[0]))
    return _verdict(margin, tol), margin, {
        "pair_margins": _pair_dict(n, pairs), "a_matrix": _read_only(A),
        "a_spectrum": _read_only(a_spectrum)}


def normalized(ch, tol):
    """(verdict, margin, diagnostics) of the normalized conditions."""
    A, a_spectrum, pairs, margin = _blocks(ch.lam)
    margin = float(margin)
    return _verdict(margin, tol), margin, {
        "pair_margins": _pair_dict(ch.n, pairs), "a_block": A, "a_spectrum": a_spectrum}
