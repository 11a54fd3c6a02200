import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstchain import (ChainSpec, HeisenbergSpec, analytic_chain, certify_pst, chain,
                      diagonalize, heisenberg_to_h1, mirror_symmetry_check, read_chain,
                      rescale, sequential_storage_chain, uniform_chain, write_chain)
from pstchain.chain import ChainFormatError

from oracles import (chain_by_element, finite_floats_by_element, heisenberg_dense,
                     one_excitation_block, tridiagonal_dense)


def test_two_site_chain_is_its_matrix():
    sd = diagonalize(chain([0.5]))
    m = sd.eigenvectors @ np.diag(sd.eigenvalues) @ sd.eigenvectors.T
    assert np.allclose(m, [[0.0, 0.5], [0.5, 0.0]], rtol=0.0, atol=1e-15)


def test_analytic_three_sites_has_spin_one_spectrum():
    spec = analytic_chain(3)
    m = tridiagonal_dense(spec.couplings, spec.fields)
    assert np.allclose(np.linalg.eigvalsh(m), [-1.0, 0.0, 1.0], atol=1e-14)


def test_uniform_four_sites_spectrum():
    spec = uniform_chain(4)
    m = tridiagonal_dense(spec.couplings, spec.fields)
    expected = sorted(-2.0 * math.cos(k * math.pi / 5.0) for k in range(1, 5))
    assert np.allclose(np.linalg.eigvalsh(m), expected, atol=1e-14)


def test_heisenberg_zero_anisotropy_equals_xx():
    j = (0.4, 1.1)
    b = (0.2, -0.3, 0.5)
    h = HeisenbergSpec(n=3, couplings=j, anisotropies=(0.0, 0.0), fields=b)
    assert heisenberg_to_h1(h) == ChainSpec(n=3, couplings=j, fields=b)


def test_heisenberg_two_site_field_shift():
    h = HeisenbergSpec(n=2, couplings=(1.0,), anisotropies=(1.0,), fields=(0.5, 0.5))
    assert heisenberg_to_h1(h).fields == (0.0, 0.0)


def test_heisenberg_three_site_field_shift():
    h = HeisenbergSpec(n=3, couplings=(1.0, 1.0), anisotropies=(1.0, 1.0),
                       fields=(0.0, 0.0, 0.0))
    assert heisenberg_to_h1(h).fields == (-0.5, -1.0, -0.5)


def test_heisenberg_chain_certifies_directly():
    """Fields that cancel the ZZ shift leave the analytic chain, which
    certifies perfect."""
    spec = analytic_chain(6)
    j = np.asarray(spec.couplings)
    d = np.full(5, 0.7)
    jd = np.concatenate(([0.0], j * d, [0.0]))
    cancel = HeisenbergSpec(n=6, couplings=spec.couplings, anisotropies=tuple(d),
                            fields=tuple(0.5 * (jd[1:] + jd[:-1])))
    cert = certify_pst(heisenberg_to_h1(cancel))
    assert cert.perfect and cert.t0 == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
def test_heisenberg_block_matches_dense_model(n):
    rng = np.random.default_rng(10 + n)
    j = rng.uniform(0.3, 1.5, n - 1)
    d = rng.uniform(-1.0, 1.0, n - 1)
    b = rng.uniform(-0.7, 0.7, n)
    h = HeisenbergSpec(n=n, couplings=tuple(j), anisotropies=tuple(d), fields=tuple(b))
    dense = heisenberg_dense(j, d, b)
    vac_energy = dense[0, 0].real
    block = one_excitation_block(dense, n) - vac_energy * np.eye(n)
    spec = heisenberg_to_h1(h)
    want = np.linalg.eigvalsh(block.real)
    assert np.allclose(np.linalg.eigvalsh(tridiagonal_dense(spec.couplings, spec.fields)),
                       want, atol=1e-10)
    assert np.allclose(diagonalize(spec).eigenvalues, want, atol=1e-10)


def test_mirror_symmetry_analytic_exact():
    report = mirror_symmetry_check(analytic_chain(8))
    assert report and report.max_violation == 0.0


def test_mirror_symmetry_rejects_storage_chain():
    spec = sequential_storage_chain(3)
    assert np.allclose(spec.couplings, [math.sqrt(8.0 / 3.0), math.sqrt(4.0 / 3.0)])
    assert not mirror_symmetry_check(spec)


def test_mirror_symmetry_uniform():
    assert mirror_symmetry_check(uniform_chain(6))


def test_zero_coupling_flagged():
    assert chain([1.0, 0.0, 1.0]).has_zero_coupling
    assert not uniform_chain(4).has_zero_coupling


def test_chain_file_round_trip(tmp_path):
    spec = chain([1.0 / 3.0, 0.7], [0.0, 1e-13, -2.5], statistics="bosonic")
    path = tmp_path / "chain.json"
    write_chain(spec, path)
    text = path.read_text()
    assert "0.33333333333333331" in text  # full 17-digit precision
    assert read_chain(path) == spec


finite = st.floats(allow_nan=False, allow_infinity=False)
any_chains = st.integers(1, 30).flatmap(lambda n: st.builds(
    chain, st.lists(finite, min_size=n - 1, max_size=n - 1),
    st.lists(finite, min_size=n, max_size=n), st.sampled_from(["fermionic", "bosonic"])))


@settings(max_examples=100, deadline=None)
@given(any_chains)
@example(chain([-0.0], [0.0, -0.0]))  # written as "-0", which JSON reads as the int 0
def test_chain_file_round_trips_byte_for_byte(tmp_path_factory, spec):
    folder = tmp_path_factory.mktemp("round_trip")
    write_chain(spec, folder / "a.json")
    again = read_chain(folder / "a.json")
    assert again == spec
    write_chain(again, folder / "b.json")
    assert (folder / "b.json").read_bytes() == (folder / "a.json").read_bytes()


def test_read_chain_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "couplings": [1.0]}')
    with pytest.raises(ChainFormatError):
        read_chain(path)
    path.write_text("not json")
    with pytest.raises(ChainFormatError):
        read_chain(path)
    for doc in ('{"n": 3.9, "couplings": [1.0, 1.0], "fields": [0, 0, 0]}',
                '{"n": true, "couplings": [], "fields": [0]}',
                '{"n": "3", "couplings": [1.0, 1.0], "fields": [0, 0, 0]}',
                '{"n": 3, "couplings": "11", "fields": "000"}',
                '{"n": 3, "couplings": [1.0, 1.0], "fields": "000"}',
                '{"n": 3, "couplings": ["1", 1.0], "fields": [0, 0, 0]}',
                '{"n": 3, "couplings": [1.0, true], "fields": [0, 0, 0]}',
                '{"n": 3, "couplings": [1.0, null], "fields": [0, 0, 0]}',
                '{"n": 3, "couplings": {"a": 1.0}, "fields": [0, 0, 0]}',
                '{"n": 3, "couplings": [1.0, [1.0]], "fields": [0, 0, 0]}'):
        path.write_text(doc)
        with pytest.raises(ChainFormatError):
            read_chain(path)
    # integers are real numbers
    path.write_text('{"n": 3, "couplings": [1, 2], "fields": [0, 0, 0]}')
    assert read_chain(path) == chain([1.0, 2.0])


def test_rescale_scales_spectrum():
    spec = chain([0.4, 0.9], [0.1, 0.0, -0.1])
    scaled = rescale(spec, 2.5)
    before = np.linalg.eigvalsh(tridiagonal_dense(spec.couplings, spec.fields))
    after = np.linalg.eigvalsh(tridiagonal_dense(scaled.couplings, scaled.fields))
    assert np.allclose(after, 2.5 * before)


def test_invalid_shapes_raise():
    with pytest.raises(ValueError):
        ChainSpec(n=3, couplings=(1.0,), fields=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        ChainSpec(n=2, couplings=(1.0,), fields=(0.0,))
    with pytest.raises(ValueError):
        ChainSpec(n=2, couplings=(math.inf,), fields=(0.0, 0.0))
    with pytest.raises(ValueError):
        ChainSpec(n=2, couplings=(1.0,), fields=(0.0, 0.0), statistics="anyonic")


_ELEMENTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.integers(-10 ** 6, 10 ** 6),
    st.sampled_from([-0.0, 0.0, 1e-320, 1e308, np.float64(-0.0), np.float64(0.25),
                     np.float32(0.1), np.int64(7), np.float64(np.nan), np.float32(np.inf),
                     "1.5", "-0", " 2e3 ", "nan", "-inf", "abc", "", 1 + 0j, 2 - 1j,
                     np.complex128(1 + 0j), None, True]),
)
_CONTAINERS = ("list", "tuple", "generator", "float64", "float32", "int64", "float64-reversed")


def _container(kind, values):
    """A fresh container of ``values`` of the given kind, or None where numpy
    cannot build that array from them."""
    if kind == "list":
        return list(values)
    if kind == "tuple":
        return tuple(values)
    if kind == "generator":
        return (v for v in values)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # complex parts and overflow to inf are inputs too
            arr = np.array(values, dtype=kind.split("-")[0])
    except (TypeError, ValueError, OverflowError):
        return None
    return arr[::-1].copy()[::-1] if kind.endswith("reversed") else arr


def _outcome(build):
    """The bytes and element types of the chain's tuples, or the type of the
    exception that building it raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            couplings, fields = build()
    except Exception as exc:   # the type is the outcome compared
        return type(exc)
    return (struct.pack(f"{len(couplings)}d", *couplings), struct.pack(f"{len(fields)}d", *fields),
            {type(v) for v in couplings + fields})


@settings(max_examples=300, deadline=None)
@given(st.lists(_ELEMENTS, max_size=6), st.sampled_from(_CONTAINERS),
       st.one_of(st.none(), st.lists(_ELEMENTS, min_size=1, max_size=7)),
       st.sampled_from(_CONTAINERS))
def test_constructors_convert_as_element_by_element(couplings, kind, fields, field_kind):
    """chain() and ChainSpec store the bytes that converting one element at a
    time gives, all Python floats, or raise the exception type it raises: on
    lists, tuples, generators and float64, float32 and int64 arrays of floats,
    ints, numpy scalars, numeric and other strings, NaN, infinities, complex
    values, None and bools."""
    make = lambda: _container(kind, couplings)              # noqa: E731
    make_fields = lambda: None if fields is None else _container(field_kind, fields)  # noqa: E731
    if make() is None or (fields is not None and make_fields() is None):
        return

    def by_chain():
        spec = chain(make(), make_fields())
        return spec.couplings, spec.fields

    want = _outcome(lambda: chain_by_element(make(), make_fields()))
    assert _outcome(by_chain) == want

    n = len(couplings) + 1
    if fields is not None and len(fields) != n:
        return

    def by_spec():
        spec = ChainSpec(n=n, couplings=make(), fields=make_fields() if fields else (0.0,) * n)
        return spec.couplings, spec.fields

    want = _outcome(lambda: (finite_floats_by_element(make(), "couplings"),
                             finite_floats_by_element(make_fields() if fields else (0.0,) * n,
                                                      "fields")))
    assert _outcome(by_spec) == want
