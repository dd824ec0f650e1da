"""``scripts/bench_pairs.py`` refuses checkouts whose paths differ in length."""

import pathlib
import subprocess
import sys

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def test_paths_of_unequal_length_are_refused_before_any_run(tmp_path):
    # each side's bench/run.py would leave a file behind if it ran
    sides = []
    for name in ("a", "bb"):
        bench = tmp_path / name / "bench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text("import pathlib\npathlib.Path('ran').write_text('')\n")
        sides.append(str(tmp_path / name))
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), *sides, "--workload", "scan", "--seeds", "1",
         "--seconds", "1", "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert "differ in length" in proc.stderr
    assert not list(tmp_path.rglob("ran")) and not (tmp_path / "out.json").exists()
