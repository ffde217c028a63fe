"""``tools/census.py``: the hook records a child process's first calls,
and the report splits what no entry point reached into "tests only" and
"nothing" (full census runs take minutes and are not tier-1's)."""

import sys

from repro.llm.tokenizer import count_tokens
from tools.census import HOOK, inventory, recorded, report, run_hooked

PROBE = "from repro.llm.tokenizer import count_tokens; count_tokens('a b')"


def test_hook_records_a_child_processes_first_calls(tmp_path, capsys):
    hook, out = tmp_path / "hook", tmp_path / "out"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK)
    run_hooked("probe", [sys.executable, "-c", PROBE], hook, out)
    assert "exit" not in capsys.readouterr().out
    assert len(list(out.glob("*.txt"))) == 1          # one file per pid
    seen = recorded(out)
    assert ("repro/llm/tokenizer.py",
            count_tokens.__code__.co_firstlineno) in seen
    assert all(module.startswith("repro/") for module, _ in seen)


def test_report_splits_unreached_functions_and_folds_nested_ones(capsys):
    functions = [f for f in inventory()
                 if f.module == "repro/llm/tokenizer.py"
                 or f.module == "repro/obs/export.py"]
    tokenizer = [f for f in functions if f.name == "count_tokens"]
    nested = [f for f in functions if f.parent is not None]
    assert tokenizer and nested
    report(functions, by_entry=set(),
           by_tests={(f.module, f.first_line) for f in tokenizer})
    text = capsys.readouterr().out
    assert "repro/llm/tokenizer.py:" in text
    assert "count_tokens" in text and "tests only" in text
    # A function inside an unreached function is counted with it.
    assert f" {nested[0].parent.name} (" in text
    assert f" {nested[0].name} (" not in text
