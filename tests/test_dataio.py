"""Round-trip and validation tests for dataset CSV and model JSON files."""

import csv
import os

import numpy as np
import pytest

import heppcat.dataio as dataio
from heppcat import (
    FitConfig,
    GroupedData,
    compress_gram,
    fit,
    model_record,
    read_dataset,
    read_json,
    record_to_model,
    write_dataset,
    write_json,
)

from conftest import random_model_and_data, worker_pids


def test_dataset_roundtrip_exact(rng, tmp_path):
    _, data = random_model_and_data(rng, d=7, k=2, L=3, n_per_group=(5, 9, 4))
    path = tmp_path / "data.csv"
    write_dataset(path, data)
    back, labels = read_dataset(path)
    assert labels == ("g1", "g2", "g3")
    assert back.group_sizes == data.group_sizes
    for A, B in zip(back.blocks, data.blocks):
        # repr floats round-trip to the identical double
        assert np.array_equal(A, B)


def test_write_dataset_rejects_gram_compressed_data(rng, tmp_path):
    # Gram roots have fewer columns than samples: written as rows, they
    # would read back as other group sizes
    data = compress_gram(GroupedData([rng.standard_normal((5, 6)), rng.standard_normal((5, 40))]))
    assert data.widths.tolist() == [5, 5] and data.group_sizes == (6, 40)
    path = tmp_path / "data.csv"
    with pytest.raises(ValueError, match="Gram-compressed"):
        write_dataset(path, data)
    assert not path.exists()


def test_dataset_rewrite_is_byte_identical(rng, tmp_path):
    _, data = random_model_and_data(rng, d=4, k=2, L=2, n_per_group=(6, 3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(p1, data)
    back, labels = read_dataset(p1)
    write_dataset(p2, back, labels=list(labels))
    assert p1.read_bytes() == p2.read_bytes()


def test_custom_labels_and_first_appearance_order(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "group,f1,f2\n"
        "noisy,1.0,2.0\n"
        "clean,3.0,4.0\n"
        "noisy,5.0,6.0\n"
    )
    data, labels = read_dataset(path)
    assert labels == ("noisy", "clean")
    assert data.group_sizes == (2, 1)
    assert np.array_equal(data.blocks[0], np.array([[1.0, 5.0], [2.0, 6.0]]))


def test_label_count_validation(rng, tmp_path):
    _, data = random_model_and_data(rng, d=3, k=1, L=2, n_per_group=(4, 4))
    with pytest.raises(ValueError, match="label"):
        write_dataset(tmp_path / "x.csv", data, labels=["only-one"])


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "empty"),
        ("sample,f1\n1,2.0\n", "line 1"),
        ("group,f1,f2\ng1,1.0\n", "line 2"),
        ("group,f1,f2\ng1,1.0,2.0\ng1,3.0,oops\n", "line 3"),
        ("group,f1,f2\n", "no data rows"),
        ("group,f1\ng1,1.0\ng1,\n", "line 3: non-numeric"),
        ("group,f1\ng1,1.0\ng1,2.0#c\n", "line 3: non-numeric"),
        ("group,f1\na,1.0\n\nb,2.0\na,3.0\nb,oops\n", "line 6: non-numeric"),
        ("group,f1,f2\r\ng1,1.0,2.0\r\ng2,3.0\r\n", "line 3: expected 3 fields"),
        ('group,"f1,f2"\ng1,1.0,2.0\n', "line 2: expected 2 fields"),
    ],
)
def test_malformed_csv_errors_name_the_line(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_dataset(path)


def test_fit_unchanged_by_csv_roundtrip(rng, tmp_path):
    _, data = random_model_and_data(rng, d=12, k=2, L=2, n_per_group=(25, 40))
    path = tmp_path / "data.csv"
    write_dataset(path, data)
    back, _ = read_dataset(path)
    cfg = FitConfig(rank=2, max_iters=40, tol=1e-8)
    r1, r2 = fit(data, cfg), fit(back, cfg)
    assert np.array_equal(r1.model.F, r2.model.F)
    assert np.array_equal(r1.model.v, r2.model.v)


def test_json_roundtrip_bit_identical(tmp_path):
    doc = {"schema_version": 1, "x": [1.0, 0.1 + 0.2], "name": "run", "flag": None}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(p1, doc)
    write_json(p2, read_json(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_model_record_roundtrip(rng):
    model, data = random_model_and_data(rng, d=6, k=2, L=2, n_per_group=(10, 15))
    res = fit(data, FitConfig(rank=2, max_iters=10, record_trace=True))
    rec = model_record(res.model, res.trace.loglik[-1], {"rank": 2}, seed=5, trace=res.trace)
    assert rec["schema_version"] == 1
    assert (rec["d"], rec["k"], rec["L"]) == (6, 2, 2)
    assert rec["config_echo"] == {"rank": 2}
    assert len(rec["trace"]["loglik"]) == res.iterations + 1
    assert list(rec["trace"]) == ["loglik", "f_change", "v"]
    back = record_to_model(rec)
    assert np.array_equal(back.F, res.model.F)
    assert np.array_equal(back.v, res.model.v)


def test_record_to_model_shape_validation():
    rec = {"d": 3, "k": 2, "L": 1, "F": [[1.0, 0.0], [0.0, 1.0]], "v": [1.0]}
    with pytest.raises(ValueError, match="shape"):
        record_to_model(rec)


def test_groups_need_not_be_contiguous(tmp_path):
    path = tmp_path / "interleaved.csv"
    path.write_text(
        "group,f1\n"
        "a,1.0\n"
        "b,2.0\n"
        "a,3.0\n"
        "b,4.0\n"
    )
    data, labels = read_dataset(path)
    assert labels == ("a", "b")
    assert np.array_equal(data.blocks[0], np.array([[1.0, 3.0]]))
    assert np.array_equal(data.blocks[1], np.array([[2.0, 4.0]]))


def _no_fallback(path):
    raise AssertionError("a well-formed file reached the per-value float() loop")


def _reference_csv(path, data, labels):
    """The csv.writer + repr writer that write_dataset must match byte for byte."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["group"] + [f"f{j + 1}" for j in range(data.d)])
        for label, block in zip(labels, data.blocks):
            for i in range(block.shape[1]):
                w.writerow([label] + [repr(float(x)) for x in block[:, i]])


_LABEL_SETS = [["plain", "", "a,b", 'say "hi"'], ['say "hi"', "", "x", "y"]]


@pytest.mark.parametrize("labels", _LABEL_SETS)
def test_write_dataset_matches_reference_writer(rng, tmp_path, labels):
    _, data = random_model_and_data(rng, d=5, k=2, L=4, n_per_group=(7, 1, 12, 3))
    blocks = [B * 10.0 ** rng.integers(-300, 300, size=B.shape) for B in data.blocks]
    blocks[1][:, 0] = [-0.0, 5e-324, 1e16, 2.2250738585072014e-308, -1.7976931348623157e308]
    data = GroupedData(blocks)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_dataset(new, data, labels=labels)
    _reference_csv(ref, data, labels)
    assert new.read_bytes() == ref.read_bytes()
    back, back_labels = read_dataset(new)
    assert back_labels == tuple(labels)
    for A, B in zip(back.blocks, data.blocks):
        assert A.tobytes() == B.tobytes()


_HARD_VALUES = [
    "5e-324",
    "2.2250738585072014e-308",
    "2.2250738585072011e-308",
    "0.30000000000000004",
    "1.2345678901234567e-89",
    "9007199254740993",
    "1e16",
    "-0.0",
    "1.7976931348623157e308",
    "1e-400",
    "  +8.5e2 ",
]


@pytest.mark.parametrize("text", _HARD_VALUES)
def test_values_parse_bit_identical_to_float(tmp_path, monkeypatch, text):
    monkeypatch.setattr(dataio, "_read_rows", _no_fallback)
    path = tmp_path / "hard.csv"
    path.write_text(f"group,f1,f2\ng1,{text},1.0\ng1,0.5,{text}\n")
    data, _ = read_dataset(path)
    want = np.float64(float(text)).tobytes()
    assert data.blocks[0][0, 0].tobytes() == want
    assert data.blocks[0][1, 1].tobytes() == want


def test_well_formed_files_never_reach_the_fallback(rng, tmp_path, monkeypatch):
    _, data = random_model_and_data(rng, d=6, k=2, L=3, n_per_group=(4, 9, 1))
    path = tmp_path / "data.csv"
    write_dataset(path, data, labels=["x", "y y", "-"])
    monkeypatch.setattr(dataio, "_read_rows", _no_fallback)
    back, labels = read_dataset(path)
    assert labels == ("x", "y y", "-")
    for A, B in zip(back.blocks, data.blocks):
        assert np.array_equal(A, B)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_line_ends_and_blank_lines(tmp_path, end):
    path = tmp_path / "data.csv"
    lines = ["group,f1,f2", "", "a,1.0,2.0", "b,3.0,4.0", "", "", "a,5.0,6.0", ""]
    path.write_bytes(end.join(lines).encode())
    data, labels = read_dataset(path)
    assert labels == ("a", "b")
    assert np.array_equal(data.blocks[0], [[1.0, 5.0], [2.0, 6.0]])
    assert np.array_equal(data.blocks[1], [[3.0], [4.0]])


def test_values_numpy_rejects_still_parse(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('group,f1,f2\n"a",1_0,2.0\na,"3.5",4.0\n')
    data, labels = read_dataset(path)
    assert labels == ("a",)
    assert np.array_equal(data.blocks[0], [[10.0, 3.5], [2.0, 4.0]])


# ---------------------------------------------------------------------------
# byte spans and the worker pool


@pytest.fixture
def pooled(monkeypatch):
    """Every file is read in spans of a few bytes and written a few values
    per task, through the worker pool: two workers unless HEPPCAT_THREADS
    says otherwise (under 1 the same spans and tasks run in-process)."""
    monkeypatch.setattr(dataio, "_POOL_BYTES", 0)
    monkeypatch.setattr(dataio, "_SPAN_BYTES", 5)
    monkeypatch.setattr(dataio, "_CHUNK_VALUES", 4)
    monkeypatch.setenv("HEPPCAT_THREADS", os.environ.get("HEPPCAT_THREADS", "2"))


# blank runs, labels that interleave, one group seen only late
_SPAN_LINES = ["group,f1,f2", "z,1.0,2.0", "", "", "", "a,3.5,-4", "z,5e-3,6.0", "", "m,7,8", "a,9,1e2", ""]
_SPAN_BLOCKS = {"z": [[1.0, 5e-3], [2.0, 6.0]], "a": [[3.5, 9.0], [-4.0, 100.0]], "m": [[7.0], [8.0]]}


def _check_span_file(path):
    data, labels = read_dataset(path)
    assert labels == tuple(_SPAN_BLOCKS)
    for block, want in zip(data.blocks, _SPAN_BLOCKS.values()):
        assert np.array_equal(block, want)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_spans_cut_at_any_byte(tmp_path, monkeypatch, end):
    # span sizes from 1 byte (a cut at every byte: line starts, mid-line,
    # inside blank runs, between CR and LF) to the whole file; a CR-only
    # file has no b"\n", so its first span takes it all
    path = tmp_path / "data.csv"
    path.write_bytes(end.join(_SPAN_LINES).encode())
    monkeypatch.setattr(dataio, "_read_rows", _no_fallback)
    for span in range(1, path.stat().st_size + 2):
        monkeypatch.setattr(dataio, "_SPAN_BYTES", span)
        _check_span_file(path)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_pooled_spans_read_the_same(tmp_path, monkeypatch, pooled, end):
    path = tmp_path / "data.csv"
    path.write_bytes(end.join(_SPAN_LINES).encode())
    monkeypatch.setattr(dataio, "_read_rows", _no_fallback)
    for span in (1, 5, 16):
        monkeypatch.setattr(dataio, "_SPAN_BYTES", span)
        _check_span_file(path)


@pytest.mark.parametrize("labels", _LABEL_SETS)
def test_pooled_write_matches_reference_writer(rng, tmp_path, pooled, labels):
    test_write_dataset_matches_reference_writer(rng, tmp_path, labels)


@pytest.mark.parametrize("text", _HARD_VALUES)
def test_pooled_values_parse_bit_identical_to_float(tmp_path, monkeypatch, pooled, text):
    test_values_parse_bit_identical_to_float(tmp_path, monkeypatch, text)


def test_csv_does_not_depend_on_pool_size(rng, tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_POOL_BYTES", 0)
    monkeypatch.setattr(dataio, "_SPAN_BYTES", 64)
    monkeypatch.setattr(dataio, "_CHUNK_VALUES", 16)
    _, data = random_model_and_data(rng, d=5, k=2, L=3, n_per_group=(30, 7, 50))
    out = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("HEPPCAT_THREADS", threads)
        path = tmp_path / f"data{threads}.csv"
        write_dataset(path, data, labels=["x", "y y", "-"])
        out[threads] = path.read_bytes(), read_dataset(path)
    (bytes1, (back1, labels1)), (bytes2, (back2, labels2)) = out["1"], out["2"]
    assert bytes1 == bytes2
    assert labels1 == labels2 == ("x", "y y", "-")
    assert back1.Y.tobytes() == back2.Y.tobytes() == data.Y.tobytes()


@pytest.mark.parametrize(
    "last, value, match",
    [
        # parsed by the fallback: a quoted label, a value numpy rejects
        ('"b",4.0', 4.0, None),
        ("b,1_0", 10.0, None),
        # a bad last line
        ("b,oops", None, "line 5: non-numeric"),
        ("b,1,2", None, "line 5: expected 2 fields, got 3"),
    ],
)
def test_bad_files_keep_the_pool(tmp_path, monkeypatch, no_pool, last, value, match):
    monkeypatch.setattr(dataio, "_POOL_BYTES", 0)
    monkeypatch.setenv("HEPPCAT_THREADS", "2")
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("group,f1\na,1.0\nb,2.0\na,3.0\nb,4.0\n")
    bad.write_text(f"group,f1\na,1.0\nb,2.0\na,3.0\n{last}\n")
    # four spans, one batch: a worker reads the last line
    monkeypatch.setattr(dataio, "_SPAN_BYTES", -(-bad.stat().st_size // 4))
    read_dataset(good)
    workers = worker_pids()
    if match is None:
        data, labels = read_dataset(bad)
        assert labels == ("a", "b")
        assert np.array_equal(data.Y, [[1.0, 3.0, 2.0, value]])
    else:
        with pytest.raises(ValueError, match=match):
            read_dataset(bad)
    assert worker_pids() == workers


def test_pooled_read_of_a_relative_path_after_chdir(tmp_path, monkeypatch, no_pool, pooled):
    # the workers keep the directory they were forked in
    (tmp_path / "data.csv").write_text("group,f1\na,1.0\nb,2.0\n")
    read_dataset(tmp_path / "data.csv")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(dataio, "_read_rows", _no_fallback)
    data, labels = read_dataset("data.csv")
    assert labels == ("a", "b") and np.array_equal(data.Y, [[1.0, 2.0]])
