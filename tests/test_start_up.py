"""What a fresh interpreter loads, and the two code paths that load scipy
submodules themselves.

Several test modules import ``scipy.linalg`` at the top, so only a child
process shows what the package loads on its own: ``import coesolve.cli``
and a dense preset, which writes a CSV, leave ``scipy.fft``,
``scipy.linalg`` and ``scipy.special`` unloaded, and ``fractions`` and
``decimal`` too (the CSV writer builds its tables from ints); the
Laplacian preset (``scipy.fft``) and a defective dense A (the
``scipy.linalg.expm`` fallback) load them where they are called and write
the same bytes as an in-process run.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

from coesolve.cli import main
from coesolve.presets import get_preset

SRC = Path(__file__).resolve().parent.parent / "src"
OPTIONAL = ("scipy.fft", "scipy.linalg", "scipy.special")
NEVER = ("fractions", "decimal")

PROBE = """
import json, sys
import coesolve.cli
loaded = {"import": [m for m in OPTIONAL if m in sys.modules]}
code = coesolve.cli.main(["solve-linear", "--preset", "problem-3.7", "--out", sys.argv[1]])
loaded["run"] = [m for m in OPTIONAL if m in sys.modules]
print(json.dumps({"exit": code, "loaded": loaded}))
"""


def _child(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120,
        **kwargs,
    )


def _result_files(directory):
    """Every result file's bytes; manifest.json records the run's timing."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.name != "manifest.json"}


def test_import_and_a_dense_run_load_no_optional_scipy_module(tmp_path):
    code = f"OPTIONAL = {OPTIONAL + NEVER!r}\n{PROBE}"
    proc = _child(["-c", code, str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"exit": 0, "loaded": {"import": [], "run": []}}


def _fresh_matches_in_process(args, tmp_path, capsys):
    proc = _child(["-m", "coesolve.cli", *args, "--out", str(tmp_path / "fresh")])
    assert proc.returncode == 0, proc.stderr
    assert main([*args, "--out", str(tmp_path / "here")]) == 0
    assert proc.stdout == capsys.readouterr().out
    fresh, here = _result_files(tmp_path / "fresh"), _result_files(tmp_path / "here")
    assert fresh and fresh == here


def test_laplacian_preset_in_a_fresh_interpreter(tmp_path, capsys):
    _fresh_matches_in_process(
        ["solve-parabolic", "--preset", "example-4.4"], tmp_path, capsys
    )


def test_defective_dense_a_in_a_fresh_interpreter(tmp_path, capsys):
    # A Jordan block with eigenvalue 1 has no eigenbasis, so the propagator
    # takes the per-frequency expm fallback.
    config = copy.deepcopy(get_preset("example-4.3"))
    config["problem"]["operator"]["matrix"] = [[1, 1], [0, 1]]
    config["problem"]["grid"]["n"] = 64
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps(config))
    _fresh_matches_in_process(["solve-parabolic", "--config", str(path)], tmp_path, capsys)
