import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmchan.basis import decompose, full_basis, gell_mann, hs_inner, recompose
from gmchan.channels import DensityMatrix
from gmchan.errors import BadDimension, DimensionMismatch, IndexOutOfRange, InvariantError

DIMS = range(2, 9)


def test_pauli_set_exact():
    assert np.array_equal(gell_mann(2, 0, 0), np.eye(2))
    assert np.array_equal(gell_mann(2, 0, 1), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(gell_mann(2, 1, 0), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(gell_mann(2, 1, 1), np.diag([1.0, -1.0]))


def test_diagonal_family_n3():
    # j=2 diagonal: sqrt(2/(2*3)) * diag(1, 1, -2)
    expected = np.sqrt(1.0 / 3.0) * np.diag([1.0, 1.0, -2.0])
    assert np.allclose(gell_mann(3, 2, 2), expected, atol=1e-16)
    assert np.array_equal(gell_mann(3, 1, 1), np.diag([1.0, -1.0, 0.0]))


def test_antisymmetric_orientation():
    # sigma for (i, j) = (2, 0) couples e_02 and e_20 with -i / +i
    m = gell_mann(3, 2, 0)
    assert m[0, 2] == -1j and m[2, 0] == 1j
    assert np.count_nonzero(m) == 2


@pytest.mark.parametrize("n", range(2, 17))
def test_stack_is_gell_mann_exactly(n):
    # the cached stack is built in one vectorized pass; each matrix must be
    # gell_mann's, bit for bit
    b = full_basis(n)
    for i in range(n):
        for j in range(n):
            assert b.matrix(i, j).tobytes() == gell_mann(n, i, j).tobytes()


@pytest.mark.parametrize("n", range(2, 17))
def test_nonzeros_scatter_to_gell_mann_exactly(n):
    # each matrix's nonzeros, scattered alone, are gell_mann's, bit for bit; the list
    # runs by owner, then row-major, and holds no zero
    owner, row, col, value = full_basis(n).nonzeros
    assert np.all(np.diff((owner * n + row) * n + col) > 0) and np.all(value != 0)
    for i in range(n):
        for j in range(n):
            mine = owner == i * n + j
            m = np.zeros((n, n), dtype=complex)
            m[row[mine], col[mine]] = value[mine]
            assert m.tobytes() == gell_mann(n, i, j).tobytes()


@pytest.mark.parametrize("n", range(2, 17))
def test_norms_are_the_dense_traces_exactly(n):
    b = full_basis(n)
    want = np.einsum("aij,aji->a", b.stack, b.stack).real
    assert b.norms_sq.dtype == want.dtype and b.norms_sq.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", DIMS)
def test_invariants(n):
    b = full_basis(n)
    for i in range(n):
        for j in range(n):
            m = b.matrix(i, j)
            assert np.max(np.abs(m - m.conj().T)) <= 1e-14  # hermitian
            tr = np.trace(m)
            if i == j == 0:
                assert abs(tr - n) <= 1e-14
            else:
                assert abs(tr) <= 1e-14
            norm = hs_inner(m, m).real
            assert abs(norm - (n if i == j == 0 else 2.0)) <= 1e-14


@pytest.mark.parametrize("n", DIMS)
def test_orthogonality(n):
    b = full_basis(n)
    flat = b.stack.reshape(n * n, n * n)
    gram = flat.conj() @ flat.T
    expected = np.diag(b.norms_sq)
    assert np.max(np.abs(gram - expected)) <= 1e-14


def test_flat_index_layout():
    b = full_basis(4)
    for i in range(4):
        for j in range(4):
            alpha = b.flat(i, j)
            assert alpha == i * 4 + j
            assert np.array_equal(b.stack[alpha], gell_mann(4, i, j))


def test_dimension_errors():
    for bad in (0, 1, -3, 2.5, "3"):
        with pytest.raises(BadDimension):
            full_basis(bad)
    with pytest.raises(IndexOutOfRange):
        gell_mann(3, 3, 0)
    with pytest.raises(IndexOutOfRange):
        gell_mann(3, 0, -1)


def test_decompose_shape_guard():
    b = full_basis(3)
    with pytest.raises(DimensionMismatch):
        decompose(np.eye(4), b)


def _dense(n):
    # the stack read as an n²×n² matrix S, S[a, i*n + j] = sigma_a[i, j]: the reference
    # route, decompose as S vec(X^T) / Tr sigma_a² and recompose as vec(c) S
    b = full_basis(n)
    return b, b.stack.reshape(n * n, n * n)


def _terms(c, S):
    # the largest sum of the magnitudes of one recomposed entry's terms, the scale of its rounding
    return max(1.0, np.max(np.abs(c).ravel() @ np.abs(S)))


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**31))
def test_decompose_recompose_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b, S = _dense(n)
    c = decompose(x, b)
    assert np.max(np.abs(recompose(c, b) - x)) <= 1e-15 * _terms(c, S)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**31))
def test_hermitian_matrices_have_real_coefficients(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = x + x.conj().T
    c = decompose(h, full_basis(n))
    assert np.max(np.abs(c.imag)) <= 1e-12


@settings(deadline=None, max_examples=60)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**31), scale=st.sampled_from((1e-6, 1.0, 1e6)))
def test_gather_routes_match_the_dense_stack(n, seed, scale):
    # the gathers sum a diagonal entry's terms in another order than the dense matvec:
    # decompose is within 1e-15 of it relative to max(1, largest |X|), recompose relative
    # to its terms' scale. An off-diagonal entry or a pair coefficient sums two exact
    # terms, so it is bit-equal to the dense route's
    rng = np.random.default_rng(seed)
    X = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    b, S = _dense(n)
    off = ~np.eye(n, dtype=bool)
    for got, want, bound in (
            (decompose(X, b), (S @ X.T.ravel() / b.norms_sq).reshape(n, n), max(1.0, np.max(np.abs(X)))),
            (recompose(X, b), (X.ravel() @ S).reshape(n, n), _terms(X, S))):
        assert np.max(np.abs(got - want)) <= 1e-15 * bound
        assert np.array_equal(got[off], want[off])


@pytest.mark.parametrize("n", (2, 3, 8))
def test_non_finite_entries_reach_only_their_own_terms(n):
    # the gather touches only the basis matrices that hold an entry, where the dense
    # matvec spread NaN to every coefficient; states still refuse non-finite entries
    b = full_basis(n)
    X = np.eye(n, dtype=complex)
    X[0, n - 1] = np.nan
    assert set(zip(*np.nonzero(np.isnan(decompose(X, b))))) == {(0, n - 1), (n - 1, 0)}
    c = np.zeros((n, n), dtype=complex)
    c[n - 1, n - 1] = np.nan
    assert set(zip(*np.nonzero(np.isnan(recompose(c, b))))) == {(k, k) for k in range(n)}
    with pytest.raises(InvariantError, match="non-finite"):
        DensityMatrix(n=n, entries=X)


def test_read_only_matrices():
    b = full_basis(3)
    with pytest.raises(ValueError):
        b.matrix(0, 1)[0, 0] = 5.0
    # the stack is scattered from the nonzeros once, then kept on the basis
    assert vars(b)["stack"] is b.stack
    for arr in (*b.nonzeros, b.norms_sq):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
