"""Command-line front end: exit codes and the pseudospectrum CSV."""

from specgate.cli import main

GRID = ["pseudospectrum", "--op", "harmonic", "--region", "0", "4", "-1", "1",
        "--resolution", "5", "3", "--N", "10"]


def _grid_rows(tmp_path, parallelism):
    out = tmp_path / f"grid-{parallelism}.csv"
    code = main(GRID + ["--parallelism", str(parallelism), "--output", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "re,im,gamma"
    # every cell is a plain float literal (no numpy scalar reprs)
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def test_pseudospectrum_csv(tmp_path):
    rows = _grid_rows(tmp_path, 1)
    assert len(rows) == 15 and all(len(r) == 3 for r in rows)
    assert rows[0] == [0.0, -1.0, rows[0][2]]
    assert _grid_rows(tmp_path, 2) == rows


def test_unknown_operator_exits_1(capsys):
    assert main(GRID[:1] + ["--op", "nosuch"] + GRID[3:]) == 1
    assert "unknown operator" in capsys.readouterr().err


def test_parallelism_is_a_pseudospectrum_option(capsys):
    assert main(["operators", "--parallelism", "2"]) == 1
    assert "--parallelism" in capsys.readouterr().err
