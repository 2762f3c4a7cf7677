"""scripts/record_diff.py diff: residual moves are reported, anything else
that differs between two record dumps fails the diff."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_diff.py"


@pytest.fixture(scope="module")
def record_diff():
    spec = importlib.util.spec_from_file_location("record_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def records():
    return [
        ["equivariant", 7, "functor_composition", "the morphism family composes",
         repr(4.163177433273763e-15), repr(2.5e-08), True, ""],
        ["equivariant", 7, "functor_unit", "the identity maps to the identity",
         repr(2.974031749999501e-15), repr(2.5e-08), True, ""],
        ["dilation", 7, "construction", "instance construction and validation",
         "inf", "0.0", False, "TwistMismatch: beta_1 beta_1 and beta_0 differ by 1.000e+00"],
    ]


def write_dump(path, rows, fingerprint="f" * 64):
    run = {"workload": "equivariant-dilation", "master_seed": 20250809,
           "fingerprint": fingerprint, "records": rows}
    path.write_text(json.dumps({"runs": [run]}))
    return str(path)


def test_diff_reports_a_moved_residual_and_passes(record_diff, tmp_path, capsys):
    moved = records()
    moved[0][4] = repr(4.180571166487609e-15)
    old = write_dump(tmp_path / "old.json", records())
    new = write_dump(tmp_path / "new.json", moved)
    assert record_diff.main(["diff", old, new]) == 0
    out = capsys.readouterr().out
    assert "1 of 3 records changed in residual" in out
    line = next(row for row in out.splitlines() if row.startswith("functor_composition"))
    assert line.split()[1:] == ["1", "1.739e-17", "6.957e-10"]
    assert "MISMATCH" not in out


def test_diff_fails_on_a_flipped_verdict(record_diff, tmp_path, capsys):
    flipped = records()
    flipped[1][6] = False
    old = write_dump(tmp_path / "old.json", records())
    new = write_dump(tmp_path / "new.json", flipped)
    assert record_diff.main(["diff", old, new]) == 1
    out = capsys.readouterr().out
    assert "0 of 3 records changed in residual" in out
    assert "MISMATCH equivariant-dilation @ 20250809 record 1 (functor_unit): passed" in out


def test_diff_fails_on_a_changed_payload(record_diff, tmp_path, capsys):
    old = write_dump(tmp_path / "old.json", records())
    new = write_dump(tmp_path / "new.json", records(), fingerprint="0" * 64)
    assert record_diff.main(["diff", old, new]) == 1
    assert "payload fingerprint differs" in capsys.readouterr().out


def test_diff_prints_each_workloads_worst_ratio(record_diff, tmp_path, capsys):
    # the worst passing ratio moves with the residual; the failing record's
    # threshold 0 has no ratio
    moved = records()
    moved[1][4] = repr(5e-9)
    old = write_dump(tmp_path / "old.json", records())
    new = write_dump(tmp_path / "new.json", moved)
    assert record_diff.main(["diff", old, new]) == 0
    out = capsys.readouterr().out.splitlines()
    line = next(row for row in out if row.startswith("equivariant-"))
    assert line.split()[-2:] == ["1.665e-07", "2.000e-01"]
