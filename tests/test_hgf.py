"""HGF field file format: header, payload, round-trips."""

import contextlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from heisground.grid import Grid3, ScalarField, build_ball_grid, full_mask
from heisground.hgf import MAGIC, read_hgf, write_hgf


@pytest.fixture()
def sample_field():
    grid, mask = build_ball_grid(1.5, 10)
    rng = np.random.default_rng(42)
    return ScalarField(grid, rng.standard_normal(grid.shape), mask)


def test_round_trip_bit_exact(tmp_path, sample_field):
    p1 = tmp_path / "a.hgf"
    p2 = tmp_path / "b.hgf"
    write_hgf(str(p1), sample_field, ball_radius=1.5, p=2.0)
    field, header = read_hgf(str(p1))
    write_hgf(str(p2), field, ball_radius=header["ball_radius"], p=header["p"],
              metadata=header["metadata"])
    assert p1.read_bytes() == p2.read_bytes()


def test_header_contents(tmp_path, sample_field):
    path = tmp_path / "f.hgf"
    write_hgf(str(path), sample_field, ball_radius=1.5, p=2.0,
              metadata={"note": "x"})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    assert header["n"] == 1
    assert header["extents"] == list(sample_field.grid.shape)
    assert header["ball_radius"] == 1.5
    assert header["metadata"] == {"note": "x"}
    n_nodes = int(np.prod(sample_field.grid.shape))
    assert len(raw) == 8 + hlen + 8 * n_nodes


def test_values_and_mask_restored(tmp_path, sample_field):
    path = tmp_path / "f.hgf"
    write_hgf(str(path), sample_field, ball_radius=1.5, p=2.0)
    field, _ = read_hgf(str(path))
    assert np.array_equal(field.values, sample_field.values)
    assert np.array_equal(field.mask, sample_field.mask)
    assert field.grid.spacing == sample_field.grid.spacing


def test_read_keeps_one_copy_of_the_payload(tmp_path):
    # The payload's bytes and the field's values are the only field-sized
    # arrays alive at once, 2.14 times the field's bytes on this box; a
    # third copy would pass 3.
    grid = Grid3((20, 20, 70), (0.1, 0.1, 0.05), (-1.0, -1.0, -1.75))
    values = np.random.default_rng(43).standard_normal(grid.shape)
    path = tmp_path / "f.hgf"
    write_hgf(str(path), ScalarField(grid, values, full_mask(grid)))
    (field, _), peak = traced_peak(read_hgf, str(path))
    assert np.array_equal(field.values.view(np.uint64), values.view(np.uint64))
    assert field.values.flags.writeable
    assert peak < 2.5 * values.nbytes


def test_numpy_node_counts_are_written(tmp_path, sample_field):
    # numpy ints in the shape used to stop json.dumps: int64 is not JSON
    # serializable
    g = sample_field.grid
    grid = Grid3(np.array(g.shape), g.spacing, g.corner)
    path = str(tmp_path / "f.hgf")
    write_hgf(path, ScalarField(grid, sample_field.values, sample_field.mask), ball_radius=1.5)
    field, _ = read_hgf(path)
    assert field.grid == g
    assert np.array_equal(field.values, sample_field.values)


_COUNT = st.integers(8, 10)
_SPACING = st.floats(1e-3, 1e3)
_COORD = st.floats(-1e3, 1e3)


@settings(max_examples=30, deadline=None)
@given(shape=st.tuples(_COUNT, _COUNT, _COUNT),
       spacing=st.tuples(_SPACING, _SPACING, _SPACING),
       corner=st.tuples(_COORD, _COORD, _COORD))
def test_grid_is_a_value(shape, spacing, corner):
    """Copies of the same numbers as lists, tuples, ndarrays and numpy
    scalars make equal grids, with equal hashes, that read back equal."""
    import tempfile

    copies = [
        Grid3(list(shape), list(spacing), list(corner)),
        Grid3(shape, spacing, corner),
        Grid3(np.array(shape), np.array(spacing), np.array(corner)),
        Grid3([np.int32(n) for n in shape], [np.float64(h) for h in spacing],
              [np.float64(c) for c in corner]),
    ]
    assert all(g == copies[1] and hash(g) == hash(copies[1]) for g in copies)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/g.hgf"
        for g in copies:
            write_hgf(path, ScalarField(g, np.zeros(g.shape), full_mask(g)))
            assert read_hgf(path)[0].grid == copies[1]


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_hgf(str(tmp_path / "missing.hgf"))


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.hgf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    from heisground.errors import DomainError

    with pytest.raises(DomainError):
        read_hgf(str(path))


def test_no_temp_files_left(tmp_path, sample_field):
    path = tmp_path / "f.hgf"
    write_hgf(str(path), sample_field, ball_radius=1.5, p=2.0)
    leftovers = [q for q in tmp_path.iterdir() if q.suffix == ".tmp"]
    assert leftovers == []


def _hgf_bytes(header, payload: bytes) -> bytes:
    raw = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<I", len(raw)) + raw + payload


def _valid_header(field):
    return {
        "n": 1,
        "extents": list(field.grid.shape),
        "spacing": list(field.grid.spacing),
        "origin": list(field.grid.corner),
        "ball_radius": 1.5,
        "p": 2.0,
        "metadata": {},
    }


@pytest.mark.parametrize(
    "case",
    [
        "non_utf8_header",
        "one_byte_header_length",
        "bad_json",
        "missing_extents",
        "negative_extents",
        "list_header",
        "trailing_bytes",
        "header_length_past_end",
        "nan_spacing",
        "two_extents",
        "float_extents",
        "negative_ball_radius",
        "string_spacing",
        "bool_extents",
        "huge_spacing",
        "count_beyond_double",
        "huge_ball_radius",
        "grid_too_small",
        "nan_payload",
        "nonzero_outside_ball",
        "n_missing",
        "n_two",
        "n_zero",
        "n_string",
        "n_null",
        "n_true",
        "n_float",
    ],
)
def test_read_rejects_malformed(tmp_path, sample_field, case):
    from heisground.errors import DomainError

    header = _valid_header(sample_field)
    payload = np.ascontiguousarray(sample_field.values, dtype="<f8").tobytes()
    edits = {
        "missing_extents": lambda h: h.pop("extents"),
        "negative_extents": lambda h: h.update(extents=[-10, -10, 10]),
        "nan_spacing": lambda h: h.update(spacing=[float("nan"), 0.3, 0.45]),
        "two_extents": lambda h: h.update(extents=h["extents"][:2]),
        "float_extents": lambda h: h.update(extents=[float(n) for n in h["extents"]]),
        "negative_ball_radius": lambda h: h.update(ball_radius=-1.5),
        "string_spacing": lambda h: h.update(spacing=[str(x) for x in h["spacing"]]),
        "bool_extents": lambda h: h.update(extents=[True] * 3),
        "huge_spacing": lambda h: h.update(spacing=[1e150] * 3),  # r^4 + t^2 overflows
        "count_beyond_double": lambda h: h.update(extents=[10**400, 8, 8]),
        # was an OverflowError: int too large to convert to float
        "huge_ball_radius": lambda h: h.update(ball_radius=10**400),
        # n other than the JSON integer 1 used to be read without a word
        "n_missing": lambda h: h.pop("n"),
        "n_two": lambda h: h.update(n=2),
        "n_zero": lambda h: h.update(n=0),
        "n_string": lambda h: h.update(n="one"),
        "n_null": lambda h: h.update(n=None),
        "n_true": lambda h: h.update(n=True),
        "n_float": lambda h: h.update(n=1.0),
    }
    if case in edits:
        edits[case](header)
        data = _hgf_bytes(header, payload)
    elif case == "non_utf8_header":
        data = _hgf_bytes(b"\xff\xfe{}", payload)
    elif case == "one_byte_header_length":
        data = MAGIC + b"\x05"
    elif case == "bad_json":
        data = _hgf_bytes(b"{not json", payload)
    elif case == "list_header":
        data = _hgf_bytes(b"[1, 2, 3]", payload)
    elif case == "trailing_bytes":
        data = _hgf_bytes(header, payload) + b"\x00"
    elif case == "header_length_past_end":
        data = MAGIC + struct.pack("<I", 1 << 20) + b"{}"
    elif case == "grid_too_small":
        header.update(extents=[4, 4, 4])
        data = _hgf_bytes(header, bytes(8 * 64))
    elif case == "nonzero_outside_ball":  # a full-box field of ones
        data = _hgf_bytes(header, np.ones(sample_field.grid.shape, dtype="<f8").tobytes())
    else:  # nan_payload
        values = sample_field.values.copy()
        values.flat[0] = np.nan
        data = _hgf_bytes(header, np.ascontiguousarray(values, dtype="<f8").tobytes())
    path = tmp_path / "bad.hgf"
    path.write_bytes(data)
    with pytest.raises(DomainError):
        read_hgf(str(path))


def _classify_inputs():
    """Raw bytes of a 3-field sequence on a small ball grid (valid HGF files)."""
    import tempfile

    grid, mask = build_ball_grid(1.5, 10)
    rho = grid.gauge_array()
    out = []
    with tempfile.TemporaryDirectory() as d:
        for m in range(3):
            path = f"{d}/s{m}.hgf"
            values = np.exp(-((rho / (0.5 + 0.2 * m)) ** 2))
            write_hgf(path, ScalarField(grid, values, mask), ball_radius=1.5, p=2.0)
            with open(path, "rb") as fh:
                out.append(fh.read())
    return out


_SEQUENCE = _classify_inputs()
_HEADER_END = 8 + struct.unpack("<I", _SEQUENCE[0][4:8])[0]


def test_classify_refuses_values_outside_ball(tmp_path, capsys):
    from heisground.cli import main

    grid, mask = build_ball_grid(1.5, 10)
    paths = [str(tmp_path / f"s{m}.hgf") for m in range(3)]
    for path, raw in zip(paths, _SEQUENCE):
        with open(path, "wb") as fh:
            fh.write(raw)
    ones = ScalarField(grid, np.ones(grid.shape), np.ones(grid.shape, dtype=bool))
    write_hgf(paths[1], ones, ball_radius=1.5)
    assert main(["classify", "--inputs", *paths]) == 66
    assert f"{(~mask).sum()} nonzero values outside the ball" in capsys.readouterr().err


def test_classify_refuses_header_n_other_than_1(tmp_path, capsys):
    from heisground.cli import main

    paths = [str(tmp_path / f"s{m}.hgf") for m in range(3)]
    for path, raw in zip(paths, _SEQUENCE):
        with open(path, "wb") as fh:
            fh.write(raw)
    raw = _SEQUENCE[1]
    header = json.loads(raw[8:_HEADER_END])
    header["n"] = 2
    with open(paths[1], "wb") as fh:
        fh.write(_hgf_bytes(header, raw[_HEADER_END:]))
    assert main(["classify", "--inputs", *paths]) == 66
    err = capsys.readouterr().err
    assert "n must be the integer 1" in err and len(err.splitlines()) == 1


@settings(max_examples=150, deadline=None)
@given(
    target=st.integers(0, 2),
    edits=st.lists(
        st.tuples(
            # Half the edits land in the magic, length or JSON header.
            st.one_of(st.integers(0, _HEADER_END - 1),
                      st.integers(0, len(_SEQUENCE[0]) - 1)),
            st.integers(0, 255),
        ),
        max_size=6,
    ),
    cut=st.one_of(st.none(), st.integers(0, len(_SEQUENCE[0]))),
    tail=st.binary(max_size=9),
)
def test_classify_survives_byte_mutations(target, edits, cut, tail):
    """Whatever the bytes, classify ends in a documented exit code."""
    import tempfile

    from heisground.cli import main

    data = bytearray(_SEQUENCE[target])
    for pos, byte in edits:
        data[pos] = byte
    data = bytes(data[:cut]) + tail
    with tempfile.TemporaryDirectory() as d:
        paths = []
        for m, raw in enumerate(_SEQUENCE):
            path = f"{d}/s{m}.hgf"
            with open(path, "wb") as fh:
                fh.write(data if m == target else raw)
            paths.append(path)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["classify", "--inputs", *paths, "--out", f"{d}/v.json"])
    assert code in {0, 1, 2, 64, 66}
