"""Hermitian eigendecomposition and inverse helpers."""

import warnings

import numpy as np
import pytest

from dmrbf import (
    ConditioningError,
    DimensionError,
    DomainError,
    FlopCounter,
    hermitian_evd,
    inv_hpd,
    whitening_filter,
)
from dmrbf.linalg import hermitian_part, vector_norm

from conftest import random_hermitian, random_hpd


def test_evd_reconstructs_and_orders():
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = random_hermitian(rng, n)
        evd = hermitian_evd(m)
        q, lam = evd.eigenvectors, evd.eigenvalues
        scale = max(1.0, np.linalg.norm(m))
        assert np.linalg.norm((q * lam) @ q.conj().T - m) <= 1e-12 * scale
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-12
        assert lam.dtype == np.float64
        assert np.all(np.diff(lam) <= 0)


def test_evd_matches_numpy_eigh():
    rng = np.random.default_rng(102)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        m = random_hermitian(rng, n)
        lam = hermitian_evd(m).eigenvalues
        ref = np.linalg.eigvalsh(m)[::-1]
        assert np.allclose(lam, ref, rtol=0.0, atol=1e-12 * max(1.0, abs(ref).max()))


def test_evd_rank_one():
    # u u^H has one eigenvalue ||u||^2, the rest zero, top eigenvector || u.
    rng = np.random.default_rng(103)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    evd = hermitian_evd(np.outer(u, u.conj()))
    assert abs(evd.eigenvalues[0] - np.vdot(u, u).real) <= 1e-12 * np.vdot(u, u).real
    assert np.all(np.abs(evd.eigenvalues[1:]) <= 1e-12 * np.vdot(u, u).real)
    q0 = evd.eigenvectors[:, 0]
    assert abs(abs(np.vdot(q0, u)) - np.linalg.norm(u)) <= 1e-10


def test_evd_rejects_bad_input():
    with pytest.raises(DimensionError):
        hermitian_evd(np.ones((2, 3), dtype=complex))
    with pytest.raises(DimensionError):
        hermitian_evd(np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex))


def _with_entry(i: int, j: int, value: complex) -> np.ndarray:
    m = np.eye(3, dtype=complex)
    m[i, j] = value
    return m


#: Each public matrix function, with the name its refusals give the matrix
#: when the caller names none.
_PUBLIC = {
    "hermitian_evd": (hermitian_evd, "m"),
    "inv_hpd": (inv_hpd, "m"),
    "whitening_filter": (
        lambda m: whitening_filter(m, FlopCounter()),
        "interference-plus-noise covariance",
    ),
}


@pytest.mark.parametrize("function", sorted(_PUBLIC))
@pytest.mark.parametrize(
    "m, message",
    [
        (np.full((3, 3), np.nan, dtype=complex), "has a NaN or infinite entry$"),
        (_with_entry(0, 1, np.nan), "has a NaN or infinite entry$"),
        (_with_entry(1, 1, np.inf), "has a NaN or infinite entry$"),
        (_with_entry(0, 2, complex(1.0, -np.inf)), "has a NaN or infinite entry$"),
        (np.array([["1", "0"], ["0", "1"]]), "must be a numeric array, got dtype <U1$"),
        (np.array([[b"1", b"0"], [b"0", b"1"]]), "must be a numeric array, got dtype [|]S1$"),
        (np.eye(2, dtype=object), "must be a numeric array, got dtype object$"),
    ],
    ids=["nan", "nan_entry", "inf_diagonal", "inf_entry", "str", "bytes", "object"],
)
def test_malformed_matrices_are_refused_by_name(function, m, message):
    # NaN or infinite entries and non-numeric arrays are typed refusals
    # naming the matrix, with no numpy warning, never NaN eigenvalues or a
    # bare ValueError; a stack is refused for its one bad matrix
    run, name = _PUBLIC[function]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (m, np.stack([np.eye(len(m), dtype=m.dtype), m])):
            with pytest.raises(DomainError, match=f"^{name} {message}"):
                run(arg)


_SKEW = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
_SINGULAR = np.diag([1.0, 1e-16]).astype(complex)


@pytest.mark.parametrize(
    "m, error, message",
    [
        (_with_entry(0, 1, np.nan), DomainError, "has a NaN or infinite entry$"),
        (np.ones((2, 3), dtype=complex), DimensionError, "must be a non-empty square matrix"),
        (_SKEW, DimensionError, "is not Hermitian: max asymmetry 2.000e"),
        (_SINGULAR, ConditioningError, "is not numerically positive definite"),
    ],
    ids=["nan", "shape", "not_hermitian", "not_hpd"],
)
def test_every_refusal_names_the_callers_matrix(m, error, message):
    # each caller names the matrix it decomposes or inverts, and every
    # refusal of it, one matrix or a stack, says that name, not "m"
    name = "projected noise covariance"
    calls = {
        "hermitian_evd": lambda x: hermitian_evd(x, name),
        "inv_hpd": lambda x: inv_hpd(x, name),
        "whitening_filter": lambda x: whitening_filter(x, FlopCounter(), name),
        "FlopCounter.evd": lambda x: FlopCounter().evd(x, name),
        "FlopCounter.inv_hpd": lambda x: FlopCounter().inv_hpd(x, name),
    }
    positive_definite = error is ConditioningError
    stack = np.stack([np.eye(*m.shape, dtype=complex), m])
    for call, run in calls.items():
        if positive_definite and call.endswith("evd"):
            continue  # an eigendecomposition refuses no definiteness
        for arg in (m, stack):
            with pytest.raises(error, match=f"^{name} {message}"):
                run(arg)


def test_public_matrix_functions_take_an_array_like():
    # a nested list is the matrix it spells, for the counted filter too
    m = [[2.0, 1.0], [1.0, 2.0]]
    want = hermitian_evd(np.array(m))
    assert hermitian_evd(m).eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert inv_hpd(m).tobytes() == inv_hpd(np.array(m)).tobytes()
    fc, fc_array = FlopCounter(), FlopCounter()
    assert whitening_filter(m, fc).tobytes() == whitening_filter(np.array(m), fc_array).tobytes()
    assert fc.total == fc_array.total == 32 * 2**3 + 2 * 2**2  # the EVD and one scaling


def test_evd_equals_eigh_of_the_hermitian_part():
    # the asymmetry is tested before the magnitude, and m^H is formed once:
    # the eigensolver still gets (m + m^H) / 2 with the same bits
    rng = np.random.default_rng(108)
    for n in (1, 2, 4, 16, 64):
        exact = random_hermitian(rng, n)
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        roundoff = exact + 1e-14 * noise
        assert np.array_equal(exact, exact.conj().T)
        assert not np.array_equal(roundoff, roundoff.conj().T)
        for m in (exact, roundoff):
            lam, q = np.linalg.eigh(m * 0.5 + m.conj().T * 0.5)
            evd = hermitian_evd(m)
            assert evd.eigenvalues.tobytes() == lam[::-1].tobytes()
            assert evd.eigenvectors.tobytes() == q[:, ::-1].tobytes()


@pytest.mark.parametrize(
    "m, message",
    [
        ([[1.0, 2.0], [0.0, 1.0]], "max asymmetry 2.000e+00 exceeds 1e-12 relative to magnitude 2.000e+00"),
        ([[0.0, 1e-3], [0.0, 0.0]], "max asymmetry 1.000e-03 exceeds 1e-12 relative to magnitude 1.000e+00"),
        ([[5e3, 1e-8], [0.0, 1.0]], "max asymmetry 1.000e-08 exceeds 1e-12 relative to magnitude 5.000e+03"),
    ],
)
def test_evd_refusal_message(m, message):
    with pytest.raises(DimensionError) as exc:
        hermitian_evd(np.array(m, dtype=complex))
    assert str(exc.value) == f"m is not Hermitian: {message}"


def test_vector_norm_is_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(109)
    cases = []
    for n in (1, 2, 4, 16, 64, 257):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cases += [z, z[::2], z.real.copy(), z.real[::3], 1e-200 * z, 1e200 * z]
    m = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    cases += [m[:, 1], np.zeros(4, dtype=complex), np.arange(5)]
    for bad in (np.inf, -np.inf, np.nan, complex(np.inf, np.nan)):
        z = np.ones(4, dtype=complex)
        z[2] = bad
        cases.append(z)
    for x in cases:
        with np.errstate(over="ignore"):  # 1e200 squared overflows in both
            got, want = vector_norm(x), np.linalg.norm(x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (x, got, want)
    # a 2-D array, strided like a transpose, gives each row's norm
    got = vector_norm(m.T)
    assert got.tobytes() == np.array([np.linalg.norm(row) for row in m.T]).tobytes()


def test_inv_hpd_residual():
    rng = np.random.default_rng(104)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = random_hpd(rng, n, cond=1e3)
        assert np.linalg.norm(m @ inv_hpd(m) - np.eye(n)) <= 1e-11
    # residual grows like cond * eps, so allow more room at cond 1e6
    for _ in range(60):
        n = int(rng.integers(2, 9))
        m = random_hpd(rng, n, cond=1e6)
        assert np.linalg.norm(m @ inv_hpd(m) - np.eye(n)) <= 1e-9


def test_inv_hpd_matches_rank_one_closed_form():
    # (s*I + a*u u^H)^-1 = I/s - (a/(s*(s + a*||u||^2))) u u^H
    rng = np.random.default_rng(105)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        s = float(10.0 ** rng.uniform(-2, 2))
        a = float(10.0 ** rng.uniform(-2, 2))
        m = s * np.eye(n) + a * np.outer(u, u.conj())
        uu = np.vdot(u, u).real
        ref = np.eye(n) / s - (a / (s * (s + a * uu))) * np.outer(u, u.conj())
        got = inv_hpd((m + m.conj().T) / 2)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_inv_hpd_rejects_near_singular():
    q = np.eye(3, dtype=complex)
    m = (q * np.array([1.0, 1e-3, 1e-16])) @ q.conj().T
    with pytest.raises(ConditioningError) as exc:
        inv_hpd(m)
    assert exc.value.min_eig <= 1e-14 * exc.value.max_eig


@pytest.mark.parametrize("n", [4, 16, 64])
def test_reciprocal_products_equal_the_divisions_bit_for_bit(n):
    # numpy divides complex by real through the reciprocal, so the products
    # hermitian_part and inv_hpd use return the divisions' bits, at scales
    # from 1e-300 to 1e300
    rng = np.random.default_rng(106 + n)
    for scale in (1e-300, 1e-3, 1.0, 1e3, 1e300):
        m = scale * random_hermitian(rng, n)
        z = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for x in (m, z):
            assert hermitian_part(x).tobytes() == (x / 2.0 + x.conj().T / 2.0).tobytes()
        h = scale * random_hpd(rng, n, cond=1e6)
        evd = hermitian_evd(h)
        q = evd.eigenvectors
        assert inv_hpd(h).tobytes() == ((q / evd.eigenvalues) @ q.conj().T).tobytes()


def test_hermitian_part_stays_finite_near_float_max():
    rng = np.random.default_rng(107)
    for n in (4, 16, 64):
        m = random_hermitian(rng, n)
        m = m / np.abs(m).max() * 1.7e308  # largest entry at 1.7e308
        assert np.array_equal(hermitian_part(m), m)
        z = 1.7e308 * np.exp(2j * np.pi * rng.random((n, n)))
        assert np.all(np.isfinite(hermitian_part(z)))


def test_stacks_keep_each_matrix_bits():
    # a stack of matrices is decomposed, inverted and measured slice by
    # slice with the bits of one matrix at a time
    rng = np.random.default_rng(110)
    for n in (1, 4, 16):
        hpd = np.stack([random_hpd(rng, n, cond=1e3) for _ in range(3)])
        evd = hermitian_evd(hpd)
        inverse = inv_hpd(hpd)
        for m, lam, q, inv in zip(hpd, evd.eigenvalues, evd.eigenvectors, inverse):
            one = hermitian_evd(m)
            assert lam.tobytes() == one.eigenvalues.tobytes()
            assert q.tobytes() == one.eigenvectors.tobytes()
            assert inv.tobytes() == inv_hpd(m).tobytes()
        x = hpd[:, 0]
        norms = vector_norm(x)
        assert [float(v) for v in norms] == [np.linalg.norm(row) for row in x]


def test_stack_refusals_name_the_first_bad_matrix():
    good = np.eye(2, dtype=complex)
    skew = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(DimensionError, match="max asymmetry 2.000e"):
        hermitian_evd(np.stack([good, skew, 3.0 * skew]))
    singular = np.diag([1.0, 1e-16]).astype(complex)
    with pytest.raises(ConditioningError) as exc:
        inv_hpd(np.stack([good, singular]))
    assert (exc.value.min_eig, exc.value.max_eig) == (1e-16, 1.0)
