import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstchain import (ChainSpec, HeisenbergSpec, analytic_chain, certify_pst, chain,
                      diagonalize, heisenberg_to_h1, mirror_symmetry_check, read_chain,
                      rescale, sequential_storage_chain, uniform_chain, write_chain)
from pstchain.chain import ChainFormatError

from oracles import heisenberg_dense, one_excitation_block, tridiagonal_dense


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
