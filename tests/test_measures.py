"""Construction, validation, and file round-trips for weighted point clouds."""

import json

import numpy as np
import pytest

import sinkdiv as sd
from sinkdiv.losses import evaluate


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_from_arrays_normalizes_and_freezes():
    m = sd.from_arrays([2.0, 6.0], [[0.0], [1.0]])
    assert m.n_atoms == 2
    assert m.dim == 1
    assert np.allclose(m.weights, [0.25, 0.75])
    assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        m.weights[0] = 0.9
    with pytest.raises(ValueError):
        m.positions[0, 0] = 5.0


def test_from_arrays_promotes_1d_positions():
    m = sd.from_arrays([1.0, 1.0], [0.0, 3.0])
    assert m.positions.shape == (2, 1)


def test_from_arrays_drops_zero_weight_atoms():
    m = sd.from_arrays([0.5, 0.0, 0.5], [[0.0], [1.0], [2.0]])
    assert m.n_atoms == 2
    assert np.allclose(m.positions[:, 0], [0.0, 2.0])


def test_from_arrays_keeps_weights_positive_and_of_unit_mass_at_float_extremes():
    # weights summing past the float range, and one that rounds to 0 when
    # divided by the total: each measure is the clean one it stands for
    clean = sd.from_arrays([0.5, 0.5], [[0.0], [1.0]])
    huge = sd.from_arrays([1e308, 1e308], [[0.0], [1.0]])
    assert np.array_equal(huge.weights, clean.weights)
    tiny = sd.from_arrays([1e-300, 1e300, 1e300], [[5.0], [0.0], [1.0]])
    assert np.array_equal(tiny.weights, clean.weights)
    assert np.array_equal(tiny.positions, clean.positions)
    beta = sd.from_arrays([1.0], [[0.25]])
    params = sd.SolverParams(epsilon=0.1)
    for loss, options in (("mmd-energy", {}), ("sinkhorn", {"params": params})):
        want = evaluate(loss, clean, beta, **options)[0]
        for alpha in (huge, tiny):
            assert evaluate(loss, alpha, beta, **options)[0] == want


def test_from_arrays_rejects_bad_inputs():
    with pytest.raises(sd.InvalidInput):
        sd.from_arrays([0.5, -0.5], [[0.0], [1.0]])      # negative weight
    with pytest.raises(sd.InvalidInput):
        sd.from_arrays([0.5, np.nan], [[0.0], [1.0]])    # non-finite weight
    with pytest.raises(sd.InvalidInput):
        sd.from_arrays([1.0], [[np.inf]])                # non-finite position
    with pytest.raises(sd.InvalidInput):
        sd.from_arrays([0.5, 0.5], [[0.0]])              # length mismatch
    with pytest.raises(sd.DegenerateMeasure):
        sd.from_arrays([0.0, 0.0], [[0.0], [1.0]])       # no mass at all


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("call, error, match", [
    (lambda tmp: sd.from_arrays([[1.0]], [[0.0]]), sd.InvalidInput, "one-dimensional"),
    (lambda tmp: sd.from_arrays([1.0], np.zeros((1, 1, 1))), sd.InvalidInput, r"\(n, d\)"),
    (lambda tmp: sd.from_arrays([0.5, 0.5], np.zeros((2, 0))), sd.InvalidInput, "d >= 1"),
    (lambda tmp: sd.load_json(_file(tmp, "z.json", '{"weights": [1, 1], "positions": [[], []]}')),
     sd.InvalidInput, "d >= 1"),
    (lambda tmp: sd.load_csv(_file(tmp, "empty.csv", "")), sd.FormatError, "no data rows"),
    (lambda tmp: sd.load_csv(_file(tmp, "header.csv", "weight,x\n")), sd.FormatError,
     "no data rows after header"),
    (lambda tmp: sd.load_csv(_file(tmp, "one.csv", "0.5\n0.5\n")), sd.FormatError,
     "at least one coordinate"),
    (lambda tmp: sd.load_json(_file(tmp, "ragged.json",
                                    '{"weights": [1, 1], "positions": [[0.0], [1.0, 2.0]]}')),
     sd.FormatError, "ragged.json"),
    (lambda tmp: sd.load_json(_file(tmp, "negative.json",
                                    '{"weights": [1.5, -0.5], "positions": [[0.0], [1.0]]}')),
     sd.InvalidInput, "nonnegative"),
    (lambda tmp: sd.save_csv(sd.from_arrays([1.0], [[0.0]]), tmp), sd.IoError, "cannot write"),
    (lambda tmp: sd.sample_unit_square(0), sd.DegenerateMeasure, "at least one sample"),
], ids=["2d-weights", "3d-positions", "0d-positions", "0d-json", "empty-csv",
        "header-only-csv", "one-column-csv", "ragged-json", "negative-json-weight",
        "save-onto-directory", "no-samples"])
def test_input_checks_raise_their_error(tmp_path, call, error, match):
    with pytest.raises(error, match=match):
        call(tmp_path)


def test_log_weights_match_weights():
    m = sd.from_arrays([1.0, 3.0], [[0.0], [1.0]])
    assert np.allclose(np.exp(m.log_weights), m.weights)


# ---------------------------------------------------------------------------
# CSV round-trips
# ---------------------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = sd.from_arrays(rng.dirichlet(np.ones(17)), rng.normal(size=(17, 3)))
    path = tmp_path / "cloud.csv"
    sd.save_csv(m, path)
    back = sd.load_csv(path)
    assert np.array_equal(back.weights, m.weights)
    assert np.array_equal(back.positions, m.positions)


def test_csv_header_detection(tmp_path):
    path = tmp_path / "with_header.csv"
    path.write_text("weight,x\n0.5,0.0\n0.5,1.0\n")
    m = sd.load_csv(path)
    assert m.n_atoms == 2
    assert np.allclose(m.positions[:, 0], [0.0, 1.0])


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0.5,0.0\n0.5,1.0,2.0\n")
    with pytest.raises(sd.FormatError):
        sd.load_csv(path)


def test_csv_non_numeric_body_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,0.0\noops,1.0\n")
    with pytest.raises(sd.FormatError):
        sd.load_csv(path)


def test_csv_missing_file_raises_io_error(tmp_path):
    with pytest.raises(sd.IoError):
        sd.load_csv(tmp_path / "nope.csv")


def test_csv_byte_order_mark_is_not_taken_for_a_header(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf0.25,0.0\n0.75,1.0\n")
    m = sd.load_csv(path)
    assert np.array_equal(m.weights, [0.25, 0.75])
    assert np.array_equal(m.positions[:, 0], [0.0, 1.0])


def test_non_utf8_file_raises_format_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    for load in (sd.load_csv, sd.load_json):
        with pytest.raises(sd.FormatError, match="not UTF-8"):
            load(path)


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def test_json_round_trip_exact(tmp_path):
    rng = np.random.default_rng(1)
    m = sd.from_arrays(rng.dirichlet(np.ones(9)), rng.normal(size=(9, 2)))
    path = tmp_path / "cloud.json"
    sd.save_json(m, path)
    back = sd.load_json(path)
    assert np.array_equal(back.weights, m.weights)
    assert np.array_equal(back.positions, m.positions)


def test_saved_files_have_golden_bytes(tmp_path):
    measure = sd.from_arrays([0.25, 0.75], [[0.1, -2.0], [1e-300, 3.5]])
    sd.save_csv(measure, tmp_path / "m.csv")
    sd.save_json(measure, tmp_path / "m.json")
    assert (tmp_path / "m.csv").read_bytes() == (
        b"0.25,0.10000000000000001,-2\n"
        b"0.75,1e-300,3.5\n"
    )
    assert (tmp_path / "m.json").read_bytes() == (
        b'{"weights": [0.25, 0.75], "positions": [[0.1, -2.0], [1e-300, 3.5]]}\n'
    )


def test_json_malformed_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"weights": [1.0]}))  # positions missing
    with pytest.raises(sd.FormatError):
        sd.load_json(path)
    path.write_text("{not json")
    with pytest.raises(sd.FormatError):
        sd.load_json(path)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def test_square_sampler_is_seeded_and_bounded():
    a = sd.sample_unit_square(40, seed=7)
    b = sd.sample_unit_square(40, seed=7)
    assert np.array_equal(a.positions, b.positions)
    assert a.dim == 2
    assert a.positions.min() >= 0.0 and a.positions.max() <= 1.0
