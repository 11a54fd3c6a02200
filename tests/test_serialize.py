import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pstchain.serialize import format_float, write_csv


def _write_per_value(path, header, columns):
    """The CSV as written one ``format_float`` call per value."""
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(cols[0])):
            fh.write(",".join(format_float(c[i]) for c in cols) + "\n")


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
            1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, -7.0]


def _random_floats(seed, n):
    """Doubles from uniformly random bit patterns (every exponent, subnormals
    included), the non-finite ones replaced by special values."""
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64).view(np.float64).copy()
    bad = ~np.isfinite(values)
    values[bad] = rng.choice(_SPECIAL, size=int(bad.sum()))
    return values


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example(0, len(_SPECIAL), _SPECIAL)
def test_csv_bytes_match_the_per_value_format(tmp_path_factory, seed, n, drawn):
    rng = np.random.default_rng(seed)
    columns = [
        _random_floats(seed, n),
        rng.integers(-2 ** 62, 2 ** 62, size=n),
        rng.choice(_SPECIAL + drawn, size=n),
        rng.standard_normal(n).tolist(),
        list(range(n)),
    ]
    header = ["bits", "ints", "specials", "normal", "index"]
    path = tmp_path_factory.mktemp("csv")
    write_csv(path / "one.csv", header, columns)
    _write_per_value(path / "each.csv", header, columns)
    assert (path / "one.csv").read_bytes() == (path / "each.csv").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_raise_before_anything_is_written(tmp_path, bad):
    fresh, kept = tmp_path / "fresh.csv", tmp_path / "kept.csv"
    kept.write_text("kept\n")
    columns = [np.linspace(0.0, 1.0, 5), [1.0, 2.0, bad, 4.0, 5.0]]
    for path in (fresh, kept):
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(path, ["t", "x"], columns)
    assert not fresh.exists()
    assert kept.read_text() == "kept\n"


def test_unequal_columns_raise(tmp_path):
    with pytest.raises(ValueError, match="equal length"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
