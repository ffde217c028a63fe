"""End-to-end CLI tests, including the self-application gate.

The headline assertion mirrors the CI step: cedarlint over the real
repo's scan roots must exit 0 against the checked-in baseline — every
error fixed or pragma'd at the site, every grandfathered warning
listed.
"""

import json
import subprocess
import sys
from pathlib import Path

from tools.cedarlint import CODES, ERROR
from tools.cedarlint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "tools.cedarlint", *args],
        cwd=cwd, capture_output=True, text=True,
    )


def test_self_application_is_clean():
    completed = run_cli()
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "0 errors, 0 warnings" in completed.stdout


def test_checked_in_baseline_has_no_errors():
    payload = json.loads(
        (REPO_ROOT / "tools/cedarlint/baseline.json")
        .read_text(encoding="utf-8")
    )
    severities = {CODES[e["code"]].severity for e in payload["entries"]}
    assert ERROR not in severities


def test_list_codes_covers_the_registry(capsys):
    assert main(["--list-codes"]) == 0
    out = capsys.readouterr().out
    for code in CODES:
        assert code in out


def test_unknown_select_code_is_a_usage_error(capsys):
    assert main(["--select", "CDL999"]) == 2
    assert "CDL999" in capsys.readouterr().err


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    # A typo must not lint nothing and pass.
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert main([
        "--repo-root", str(tmp_path), "--no-baseline", "src", "srcc",
    ]) == 2
    assert "no such path: srcc" in capsys.readouterr().err


def test_json_format_reports_structured_findings(tmp_path):
    bad = tmp_path / "src" / "repro" / "llm"
    bad.mkdir(parents=True)
    (bad / "seedless.py").write_text(
        "import random\n\nrng = random.Random()\n", encoding="utf-8"
    )
    code = main([
        "--repo-root", str(tmp_path), "--no-baseline",
        "--format", "json", str(tmp_path / "src"),
    ])
    assert code == 1


def test_write_baseline_refuses_errors(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "llm"
    bad.mkdir(parents=True)
    (bad / "seedless.py").write_text(
        "import random\n\nrng = random.Random()\n", encoding="utf-8"
    )
    code = main([
        "--repo-root", str(tmp_path),
        "--baseline", str(tmp_path / "baseline.json"),
        "--write-baseline", str(tmp_path / "src"),
    ])
    assert code == 1
    assert "refusing to baseline" in capsys.readouterr().err
    assert not (tmp_path / "baseline.json").exists()

