"""The vectorized CSV writer against the row loop it replaced, the tables
of ``field_table``, and JSON string escapes.

``write_csv`` must write the bytes of ``"%.17g" % x`` for every value.  The
reference below is the old writer, one ``line % tuple(row)`` per row.  A
column of +0.0 only is written without reaching ``_format_values``.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coesolve import output
from coesolve.cli import main
from coesolve.output import field_table, to_json_text, write_csv
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


def _zero_mix(rng, size, zeros):
    """+-0.0 among subnormals, nan, +-inf, near-ties, |x| >= 1e280 and
    ordinary values, a share ``zeros`` of them zeros."""
    ties = 1e15 + rng.integers(0, 10**6, size) + rng.choice([0.25, 0.75], size)  # y = D + 1/2
    others = np.concatenate([
        np.array(rng.integers(1, 2**52, size, dtype=np.uint64)).view(np.float64),  # subnormal
        [np.nan, np.inf, 2.0**-1074, 1e280, np.nextafter(1e280, 0)],
        ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf),
        10.0 ** rng.uniform(280, 308, size),
        rng.standard_normal(size) * 10.0 ** rng.uniform(-30, 30, size),
    ])
    values = np.where(rng.random(size) < zeros, 0.0, rng.choice(others, size))
    return np.where(rng.random(size) < 0.5, -values, values)


MIXES = ["all zeros", "no zeros", "few zeros", "mixed", "zero columns"]


@pytest.mark.parametrize("mix", MIXES)
def test_zero_rows_match_the_row_loop(tmp_path, mix):
    """Every row keeps the bytes of "%.17g" in chunks of zeros alone, of no
    zeros, of a few zeros (which stay in the digit pipeline), and of zeros
    among every kind of value the writer treats apart (which skip it).
    "zero columns" is a real run's table: every im_u column +-0.0."""
    rng = np.random.default_rng(MIXES.index(mix))
    shape = (3 * CHUNK // 13 + 5, 13)  # three full chunks and a partial one
    size = shape[0] * shape[1]
    table = {
        "all zeros": lambda: np.where(rng.random(shape) < 0.5, -0.0, 0.0),
        "no zeros": lambda: rng.standard_normal(shape) * 10.0 ** rng.uniform(-30, 30, shape),
        "few zeros": lambda: _zero_mix(rng, size, 0.02).reshape(shape),
        "mixed": lambda: _zero_mix(rng, size, 0.4).reshape(shape),
        "zero columns": lambda: np.where(np.arange(13) % 2, 0.0, rng.standard_normal(shape)),
    }[mix]()
    share = np.count_nonzero(table == 0) / size
    assert {"all zeros": share == 1.0, "no zeros": share == 0.0,
            "few zeros": 0.0 < share < 1 / output._SPARSE}.get(mix, share >= 1 / output._SPARSE)
    assert_same_bytes(tmp_path, table)


# Column kinds: "0" all +0.0 (never formatted), "-" all -0.0, "m" both zeros,
# "v" values with scattered zeros, "s" values that the writer formats with "%"
# (nan, +-inf, subnormals, |x| >= 1e280), so that a splice precedes the
# separator that a following zero run expands.
_SPECIALS = np.array([np.nan, np.inf, -np.inf, 5e-324, -2.0**-1060, 1e280, -1.5e300, 1.7e308])


def _column(kind, rng, rows):
    if kind == "0":
        return np.zeros(rows)
    if kind == "-":
        return np.full(rows, -0.0)
    if kind == "m":  # both signs whenever there are two rows
        return np.where(np.arange(rows) % 2 == 0, -0.0, 0.0)
    if kind == "s":
        return rng.choice(_SPECIALS, rows)
    return _zero_mix(rng, rows, 0.2)


def zero_column_table(kinds, rows, seed):
    rng = np.random.default_rng(seed)
    return np.stack([_column(kind, rng, rows) for kind in kinds], axis=1)


def _rows_at_chunk_edges(kinds):
    """Row counts around the writer's chunk of live values."""
    step = max(1, CHUNK // max(1, sum(kind != "0" for kind in kinds)))
    return sorted({rows for rows in (1, 2, step - 1, step, step + 1, 2 * step + 1) if rows >= 1})


@pytest.mark.parametrize("kinds", [
    "0v", "v0", "00v", "v00", "0v00v0", "v0s0v", "s00s000", "0000", "0", "0s0", "00v00",
    "-0m0v", "0-", "m0", "s0-0m",
], ids=str)
def test_zero_columns_match_the_row_loop(tmp_path, kinds):
    """Leading, trailing and adjacent runs of +0.0 columns, every column
    +0.0, one live column, and columns of -0.0 or of both zeros, at every
    row count around a chunk of live values."""
    for rows in _rows_at_chunk_edges(kinds):
        assert_same_bytes(tmp_path, zero_column_table(kinds, rows, len(kinds) * 1000 + rows))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kinds=st.lists(st.sampled_from("00-msv"), min_size=1, max_size=30).map("".join),
       edge=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_random_zero_columns_match_the_row_loop(tmp_path_factory, kinds, edge, seed):
    rows = _rows_at_chunk_edges(kinds)
    table = zero_column_table(kinds, rows[edge % len(rows)], seed)
    assert_same_bytes(tmp_path_factory.mktemp("zero-columns"), table)


def test_many_distinct_zero_runs_match_the_row_loop(tmp_path):
    """More kinds of zero run than there are placeholder bytes: one live
    column, then runs of 1, 2, ..., 180 +0.0 columns."""
    kinds = "".join("v" + "0" * run for run in range(1, 181))
    assert_same_bytes(tmp_path, zero_column_table(kinds, 3, 0))


def _spy(monkeypatch):
    """The (values, separators) of every ``output._format_values`` call."""
    calls, format_values = [], output._format_values

    def spy(values, sep):
        calls.append((values.copy(), sep.copy()))
        return format_values(values, sep)

    monkeypatch.setattr(output, "_format_values", spy)
    return calls


def test_no_value_of_a_zero_column_is_formatted(tmp_path, monkeypatch):
    kinds = "0v0s-00m0v00"
    live = [j for j, kind in enumerate(kinds) if kind != "0"]
    calls = _spy(monkeypatch)
    for rows in _rows_at_chunk_edges(kinds):
        table = zero_column_table(kinds, rows, rows)
        calls.clear()
        write_csv(tmp_path / "t.csv", list(kinds), table)
        step = CHUNK // len(live)
        assert [len(values) for values, _ in calls] == [
            len(live) * min(step, rows - start) for start in range(0, rows, step)]
        formatted = np.concatenate([values for values, _ in calls])
        assert formatted.tobytes() == np.ascontiguousarray(table[:, live]).tobytes()
    calls.clear()
    write_csv(tmp_path / "t.csv", ["a", "b"], np.zeros((50, 2)))
    assert calls == []


@pytest.mark.parametrize("shape", [(1, 1), (700, 7), (5, 600), (4097, 1)], ids=str)
def test_a_table_without_zero_columns_formats_as_before(tmp_path, monkeypatch, shape):
    """The chunks and separators of the writer before zero columns were split off."""
    rng = np.random.default_rng(shape[0])
    table = rng.standard_normal(shape)
    if shape[0] >= 3:  # +0.0 first and last rows, live in between: the columns stay live
        table[[0, -1]] = 0.0
    calls = _spy(monkeypatch)
    write_csv(tmp_path / "t.csv", [f"c{j}" for j in range(shape[1])], table)
    step = max(1, CHUNK // shape[1])
    sep = np.full(shape, ord(","), np.uint64)
    sep[:, -1] = ord("\n")
    sep <<= 8 * 6
    want = [(table[start : start + step].ravel(), sep[start : start + step].ravel())
            for start in range(0, shape[0], step)]
    assert len(calls) == len(want)
    for (values, seps), (want_values, want_seps) in zip(calls, want):
        assert values.tobytes() == want_values.tobytes()
        assert seps.tobytes() == want_seps.tobytes()


@pytest.mark.parametrize("times", [None, 3], ids=["snapshot", "trajectory"])
def test_a_real_field_table_has_the_bits_of_its_complex_twin(times):
    """float64 samples fill a zeroed table, with no complex copy of them:
    the same table as their complex128 twin, at a peak of the table alone."""
    rng = np.random.default_rng(5)
    x = np.linspace(-4.0, 4.0, 64, endpoint=False)
    values = rng.standard_normal((64, 9) if times is None else (times, 64, 9))
    t = None if times is None else np.linspace(0.0, 1.0, times)
    header, want = field_table(x, values.astype(complex), t)
    tracemalloc.start()
    got = field_table(x, values, t)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got[0] == header == ([] if t is None else ["t"]) + ["x"] + [
        f"{part}_u{d}" for d in range(9) for part in ("re", "im")]
    assert got[1].tobytes() == want.tobytes()
    assert not got[1][:, 1 - 18 :: 2].view(np.uint64).any()  # im columns: +0.0
    assert peak < want.nbytes + values.nbytes // 2


def test_a_chunk_of_live_values_peaks_below_its_budget():
    """A full chunk formats in under 160 bytes a value: the digit groups are
    freed before the row words are built (240 bytes a value while both lived)."""
    rng = np.random.default_rng(6)
    values = rng.standard_normal(CHUNK) * 10.0 ** rng.uniform(-20, 20, CHUNK)
    sep = np.full(CHUNK, ord(",") << 48, np.uint64)
    output._format_values(values, sep)  # builds the lookup tables once
    tracemalloc.start()
    text = output._format_values(values, sep)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert text == b"".join(b"%.17g," % v for v in values.tolist())
    assert peak < 160 * CHUNK


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


@pytest.mark.parametrize("make", [float, np.float32, np.float64])
def test_non_finite_floats_are_quoted_names(make):
    # the sign of a negative nan is dropped
    values = [make("nan"), make("inf"), make("-inf"), -make("nan"), make("1.5")]
    assert to_json_text(values) == '["nan", "inf", "-inf", "nan", 1.5]\n'
