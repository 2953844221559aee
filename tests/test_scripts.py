"""The scripts under scripts/ run end to end: the demo tour, and the fixture
generator, whose output must equal the checked-in fixtures byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Bytecode would land in the source tree through the symlinked src below.
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def run_script(path: Path, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          env=ENV, cwd=cwd, timeout=300)


def test_certificate_demo_verifies_every_shipped_fixture(tmp_path):
    result = run_script(ROOT / "scripts" / "certificate_demo.py", tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 5 and all("shipped valid" in line for line in lines), result.stdout


def test_make_fixtures_regenerates_the_checked_in_files(tmp_path):
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "make_fixtures.py", tmp_path / "scripts")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    result = run_script(tmp_path / "scripts" / "make_fixtures.py", tmp_path)
    assert result.returncode == 0, result.stderr
    expected = sorted(p.name for p in (ROOT / "fixtures").iterdir())
    assert sorted(p.name for p in (tmp_path / "fixtures").iterdir()) == expected
    for name in expected:
        assert (tmp_path / "fixtures" / name).read_bytes() \
            == (ROOT / "fixtures" / name).read_bytes(), name
