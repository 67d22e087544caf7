import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "diff_outputs.py"
spec = importlib.util.spec_from_file_location("diff_outputs", SCRIPT)
diff_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_outputs)


def write_tree(root, summary, csv_rows):
    root.mkdir()
    (root / "run.json").write_text(json.dumps(summary, sort_keys=True))
    (root / "run.csv").write_text("n,x_1,step_norm\n" + "".join(f"{r}\n" for r in csv_rows))
    (root / "same.json").write_text('{"p": 3.0}\n')
    return root


def test_reports_relative_and_integer_changes(tmp_path, capsys):
    a = write_tree(
        tmp_path / "a",
        {"iterations": 17, "limit": [1.0, 2.0], "converged": True},
        ["0,1.0,", "1,0.5,0.5"],
    )
    b = write_tree(
        tmp_path / "b",
        {"iterations": 18, "limit": [1.0, 2.0 + 2**-50], "converged": False},
        ["0,1.0,", "1,0.5,0.5", "2,0.25,0.25"],
    )
    (b / "extra.json").write_text("{}\n")
    assert diff_outputs.main([str(a), str(b)]) == 1
    rows = {
        line.split(" | ")[0].lstrip("| "): line
        for line in capsys.readouterr().out.splitlines()[2:]
    }
    assert set(rows) == {"extra.json", "run.csv", "run.json", "same.json"}
    assert "identical" in rows["same.json"]
    assert "only in B" in rows["extra.json"]
    assert "4.4e-16 (limit[1])" in rows["run.json"]
    assert "iterations 17 -> 18" in rows["run.json"]
    assert "converged True -> False" in rows["run.json"]
    assert "rows 2 -> 3" in rows["run.csv"]
    assert "n[2] only in B" in rows["run.csv"]


def test_compare_fields():
    worst, ints, other = diff_outputs.compare(
        {"a": 1.0, "b": 3, "c": "x", "d": float("nan")},
        {"a": 1.0 + 2**-40, "b": 3, "c": "y", "d": float("nan")},
    )
    assert worst == (pytest.approx(2**-40, rel=1e-3), "a")
    assert ints == []
    assert other == ["c 'x' -> 'y'"]


def test_identical_trees_exit0(tmp_path, capsys):
    a = write_tree(tmp_path / "a", {"iterations": 3}, ["0,1.0,"])
    b = write_tree(tmp_path / "b", {"iterations": 3}, ["0,1.0,"])
    assert diff_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.count("identical") == 3
