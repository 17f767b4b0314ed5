"""The vectorized CSV writer against the row loop it replaced, and JSON
string escapes.

``write_csv`` must write the bytes of ``"%.17g" % x`` for every value.  The
reference below is the old writer, one ``line % tuple(row)`` per row.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coesolve import output
from coesolve.cli import main
from coesolve.output import to_json_text, write_csv
from coesolve.presets import get_preset, preset_names

CHUNK = output._CHUNK


def reference_write_csv(path, header, table):
    """The row loop write_csv replaced, kept as its oracle."""
    table = np.asarray(table, dtype=float)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(line % tuple(row.tolist()))


def both(tmp_path, header, table):
    """The bytes write_csv writes and the bytes the row loop writes."""
    write_csv(tmp_path / "new.csv", header, table)
    reference_write_csv(tmp_path / "old.csv", header, table)
    return (tmp_path / "new.csv").read_bytes(), (tmp_path / "old.csv").read_bytes()


def assert_same_bytes(tmp_path, table):
    table = np.asarray(table, dtype=float)
    got, want = both(tmp_path, [f"c{j}" for j in range(table.shape[1])], table)
    if got != want:  # name the first differing value, not a 1 MB diff
        for g, w in zip(got.splitlines(), want.splitlines()):
            assert g.split(b",") == w.split(b",")
    assert got == want


def test_directed_cases(tmp_path):
    values = np.array([
        1000000000000000.25, 0.5,  # exact ties
        np.nextafter(1e17, 0), 9.9999999999999999e22,  # round up to 10^(e + 1)
        1e-5, 1e-4, 1e16, 1e17,  # notation switches
        np.nextafter(1e-4, 0), np.nextafter(1e16, 0), np.nextafter(1e17, np.inf),
        0.0, 1e-280, 1e280, np.nextafter(1e-280, 0), np.nextafter(1e280, np.inf),
        5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
        np.nan, np.inf, 1.0, 10.0, 1e22, 1e23, 0.1, 1 / 3, 2.0**-1074 * 3, 123456789.0,
    ])
    assert_same_bytes(tmp_path, np.concatenate([values, -values])[:, None])


def test_every_power_of_ten_and_its_neighbours(tmp_path):
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    with np.errstate(over="ignore"):
        table = np.stack([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                          5 * powers, 0.95 * powers, -powers], axis=1)
    assert_same_bytes(tmp_path, table)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12).flatmap(lambda cols: st.lists(
    st.lists(st.integers(0, 2**64 - 1), min_size=cols, max_size=cols), min_size=1, max_size=40)))
def test_random_bit_patterns(tmp_path_factory, rows):
    # Any float64: subnormals, nan payloads of either sign and +-inf.
    table = np.array(rows, dtype=np.uint64).view(np.float64)
    assert_same_bytes(tmp_path_factory.mktemp("bits"), table)


def test_random_bit_patterns_in_bulk(tmp_path):
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64, endpoint=False)
    assert_same_bytes(tmp_path, bits.view(np.float64).reshape(-1, 25))


def test_many_magnitudes(tmp_path):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(40_000) * 10.0 ** rng.uniform(-30, 30, 40_000)
    assert_same_bytes(tmp_path, values.reshape(-1, 40))


@pytest.mark.parametrize("shape", [
    (0, 3), (1, 1), (5, 600),
    (CHUNK - 1, 1), (CHUNK, 1), (CHUNK + 1, 1),
    (CHUNK // 7 - 1, 7), (CHUNK // 7, 7), (CHUNK // 7 + 1, 7),
], ids=str)
def test_table_shapes(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    table = rng.standard_normal(shape) * np.exp(5 * rng.standard_normal(shape))
    table[::3, ::2] = np.round(table[::3, ::2])  # short fixed-notation values
    assert_same_bytes(tmp_path, table)


def test_empty_table_writes_the_header(tmp_path):
    got, want = both(tmp_path, ["a", "b"], np.array([]))
    assert got == want == b"a,b\n"


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_csv_matches_the_row_loop(tmp_path, capsys, name):
    # %.17g round-trips, so float() recovers each table exactly.
    scenario = get_preset(name)["scenario"]
    out = tmp_path / "out"
    assert main([scenario, "--preset", name, "--out", str(out)]) == 0
    capsys.readouterr()
    for path in sorted(out.glob("*.csv")):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        reference_write_csv(tmp_path / "old.csv", header, table.reshape(-1, len(header)))
        assert path.read_bytes() == (tmp_path / "old.csv").read_bytes(), path.name


def test_every_control_character_is_escaped():
    text = "".join(chr(c) for c in range(0x20)) + '"quoted" \\ back\\slash'
    assert json.loads(to_json_text({text: [text]})) == {text: [text]}
    assert to_json_text("a\nb") == '"a\\nb"\n'
