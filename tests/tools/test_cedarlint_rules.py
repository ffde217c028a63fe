"""Rule-level cedarlint tests over a seeded known-bad fixture corpus.

Each fixture is a tiny file planted at a zone-meaningful path inside a
temporary repo root; assertions pin the exact ``CDL0xx`` codes (and
their absence), mirroring the invalid-corpus style of
``tests/sqlengine/test_analyzer.py``: stable codes are the API, so the
tests key on them.
"""

from pathlib import Path

from tools.cedarlint import Baseline, LintConfig, run_lint


def lint_fixture(tmp_path, files, *, select=None, showcase=False,
                 baseline=None):
    """Write ``{relative_path: source}`` under ``tmp_path`` and lint it."""
    roots = set()
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        roots.add(Path(relative).parts[0])
    return run_lint(LintConfig(
        repo_root=tmp_path,
        roots=sorted(tmp_path / root for root in roots if root != "docs"),
        select=frozenset(select) if select else None,
        include_showcase=showcase,
        baseline=baseline,
    ))


def codes(result):
    return [d.code for d in result.findings]


# -- determinism (CDL01x) -----------------------------------------------------


def test_wall_clock_flagged_in_deterministic_zones(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/core/clocky.py":
            "import time as t\n\n\ndef f():\n    return t.monotonic()\n",
    })
    assert codes(result) == ["CDL010"]
    assert result.findings[0].severity == "warning"
    assert result.findings[0].line == 5


def test_wall_clock_fine_outside_deterministic_zones(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/service/timy.py":
            "import time\n\n\ndef f():\n    return time.monotonic()\n",
    })
    assert codes(result) == []


def test_seedless_random_error_even_through_aliases(tmp_path):
    result = lint_fixture(tmp_path, {
        "benchmarks/bench_bad.py":
            "from random import Random as R\n\nrng = R()\n",
        "tests/test_ok.py":
            "import random\n\nrng = random.Random(7)\n",
    })
    assert codes(result) == ["CDL011"]
    assert result.findings[0].path == "benchmarks/bench_bad.py"
    assert result.findings[0].severity == "error"


def test_global_random_flagged_in_library_only(tmp_path):
    source = "import random\n\n\ndef f(xs):\n    random.shuffle(xs)\n"
    result = lint_fixture(tmp_path, {
        "src/repro/llm/shuffle.py": source,
        "tests/test_shuffle.py": source,
    })
    assert [(d.code, d.path) for d in result.findings] == [
        ("CDL012", "src/repro/llm/shuffle.py"),
    ]


def test_id_keys_flagged_in_subscripts_sets_and_keyed_methods(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/llm/idkeys.py": (
            "def f(cache, seen, obj):\n"
            "    cache[id(obj)] = 1\n"
            "    seen.add(id(obj))\n"
            "    return cache.get(id(obj)), {id(obj): 2}\n"
        ),
    })
    assert codes(result) == ["CDL013"] * 4


def test_id_outside_key_position_not_flagged(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/llm/idfine.py": (
            "def f(a, b, seen):\n"
            "    return id(a) == id(b) or id(a) in seen\n"
        ),
    })
    assert codes(result) == []


def test_set_iteration_feeding_ordered_output(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/llm/sets.py": (
            "def f(names):\n"
            "    pending = set(names)\n"
            "    as_list = list(pending)\n"
            "    joined = ','.join({n.lower() for n in names})\n"
            "    comp = [n for n in pending]\n"
            "    ok = sorted(pending)\n"
            "    return as_list, joined, comp, ok\n"
        ),
    })
    assert codes(result) == ["CDL014"] * 3
    assert [d.line for d in result.findings] == [3, 4, 5]


def test_obs_clock_ban_catches_from_imports_and_random(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/obs/sneaky.py": (
            "import time\n"
            "from time import perf_counter\n"
            "import random\n"
            "\n"
            "\n"
            "def f():\n"
            "    return time.time() + perf_counter()\n"
            "\n"
            "\n"
            "def ok(clock=time.perf_counter):\n"
            "    return clock\n"
        ),
    })
    # one for the random import, two for the calls; the bare
    # by-reference default argument is fine.
    assert codes(result) == ["CDL015"] * 3
    assert {d.line for d in result.findings} == {3, 7}


def test_obs_clock_is_unsuppressible(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/obs/pragma.py": (
            "import time\n"
            "\n"
            "\n"
            "def f():\n"
            "    return time.time()  # cedarlint: disable=CDL015\n"
        ),
    })
    assert codes(result) == ["CDL015"]
    assert result.suppressed == 0


# -- concurrency (CDL02x) -----------------------------------------------------


def test_lexical_lock_order_inversion(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/service/locks.py": (
            "import threading\n"
            "\n"
            "LOCK_A = threading.Lock()\n"
            "LOCK_B = threading.Lock()\n"
            "\n"
            "\n"
            "def forward():\n"
            "    with LOCK_A:\n"
            "        with LOCK_B:\n"
            "            pass\n"
            "\n"
            "\n"
            "def backward():\n"
            "    with LOCK_B:\n"
            "        with LOCK_A:\n"
            "            pass\n"
        ),
    }, select={"CDL020"})
    assert codes(result) == ["CDL020"]
    assert "cycle" in result.findings[0].message


def test_lock_order_inversion_through_calls(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/service/proplocks.py": (
            "import threading\n"
            "\n"
            "LOCK_A = threading.Lock()\n"
            "\n"
            "\n"
            "class Guard:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "    def touch(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "\n"
            "    def inverse(self):\n"
            "        with self._lock:\n"
            "            with LOCK_A:\n"
            "                pass\n"
            "\n"
            "\n"
            "def use():\n"
            "    guard = Guard()\n"
            "    with LOCK_A:\n"
            "        guard.touch()\n"
        ),
    }, select={"CDL020"})
    assert codes(result) == ["CDL020"]


def test_consistent_lock_order_is_clean(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/service/goodlocks.py": (
            "import threading\n"
            "\n"
            "LOCK_A = threading.Lock()\n"
            "LOCK_B = threading.Lock()\n"
            "\n"
            "\n"
            "def one():\n"
            "    with LOCK_A:\n"
            "        with LOCK_B:\n"
            "            pass\n"
            "\n"
            "\n"
            "def two():\n"
            "    with LOCK_A:\n"
            "        with LOCK_B:\n"
            "            pass\n"
        ),
    }, select={"CDL020"})
    assert codes(result) == []


def test_plain_lock_reacquisition_deadlock(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/service/selflock.py": (
            "import threading\n"
            "\n"
            "LOCK = threading.Lock()\n"
            "RELOCK = threading.RLock()\n"
            "\n"
            "\n"
            "def bad():\n"
            "    with LOCK:\n"
            "        with LOCK:\n"
            "            pass\n"
            "\n"
            "\n"
            "def fine():\n"
            "    with RELOCK:\n"
            "        with RELOCK:\n"
            "            pass\n"
        ),
    }, select={"CDL020"})
    assert codes(result) == ["CDL020"]
    assert "re-acquired" in result.findings[0].message
    assert result.findings[0].line == 9


def test_unguarded_mutation_of_guarded_attribute(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/service/box.py": (
            "import threading\n"
            "\n"
            "\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "\n"
            "    def add(self, item):\n"
            "        with self._lock:\n"
            "            self._items = self._items + [item]\n"
            "\n"
            "    def clear(self):\n"
            "        self._items = []\n"
        ),
    })
    assert codes(result) == ["CDL021"]
    assert result.findings[0].line == 14
    assert "_items" in result.findings[0].message


def test_init_writes_are_not_unguarded_mutation(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/service/initonly.py": (
            "import threading\n"
            "\n"
            "\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "\n"
            "    def add(self, item):\n"
            "        with self._lock:\n"
            "            self._items = self._items + [item]\n"
        ),
    })
    assert codes(result) == []


def test_blocking_call_in_async_body(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/cluster/spin.py": (
            "import time\n"
            "\n"
            "\n"
            "async def tick():\n"
            "    time.sleep(1)\n"
        ),
    })
    assert codes(result) == ["CDL022"]
    assert result.findings[0].severity == "error"


def test_run_in_executor_pattern_is_clean(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/cluster/offload.py": (
            "import time\n"
            "\n"
            "\n"
            "async def tick(loop):\n"
            "    def work():\n"
            "        time.sleep(1)\n"
            "    await loop.run_in_executor(None, work)\n"
        ),
    })
    assert codes(result) == []


# -- layering (CDL03x) --------------------------------------------------------


def test_engine_construction_outside_sqlengine(tmp_path):
    source = (
        "from repro.sqlengine import Engine\n"
        "\n"
        "\n"
        "def f(db):\n"
        "    return Engine(db)\n"
    )
    result = lint_fixture(tmp_path, {
        "src/repro/core/use_engine.py": source,
        "tests/test_use_engine.py": source,  # tests are exempt
    })
    assert [(d.code, d.path) for d in result.findings] == [
        ("CDL030", "src/repro/core/use_engine.py"),
    ]


def test_sqlite_ownership(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/service/sneaky_db.py": "import sqlite3\n",
        "src/repro/cache/owner.py": "import sqlite3\n",
    })
    assert [(d.code, d.path) for d in result.findings] == [
        ("CDL031", "src/repro/service/sneaky_db.py"),
    ]


def test_column_array_containment(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/core/peek.py": (
            "def f(table):\n"
            "    return table.column_array(0), table._arrays\n"
        ),
        "tests/sqlengine/test_peek.py": (
            "def f(table):\n"
            "    return table._arrays\n"
        ),
    })
    assert [(d.code, d.path) for d in result.findings] == [
        ("CDL032", "src/repro/core/peek.py"),
        ("CDL032", "src/repro/core/peek.py"),
    ]


def test_public_surface_over_examples_and_docs(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/__init__.py": "__all__ = ['VerificationService']\n",
        "examples/demo.py": (
            "from repro import VerificationService\n"
            "from repro import _secret\n"
        ),
        "docs/guide.md": (
            "Intro prose.\n"
            "\n"
            "```python\n"
            "from repro.core.pipeline import hidden\n"
            "```\n"
        ),
    }, showcase=True)
    surface = [(d.code, d.path, d.line) for d in result.findings]
    assert ("CDL033", "examples/demo.py", 2) in surface
    assert ("CDL033", "docs/guide.md", 4) in surface
    assert len([c for c, _, _ in surface if c == "CDL033"]) == 2


# -- suppression mechanics ----------------------------------------------------


def test_native_pragma_suppresses_named_code(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/llm/pragma.py": (
            "def f(cache, obj):\n"
            "    cache[id(obj)] = 1  # cedarlint: disable=CDL013\n"
        ),
    })
    assert codes(result) == []
    assert result.suppressed == 1


def test_native_pragma_for_other_code_does_not_suppress(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/llm/pragma_miss.py": (
            "def f(cache, obj):\n"
            "    cache[id(obj)] = 1  # cedarlint: disable=CDL014\n"
        ),
    })
    assert codes(result) == ["CDL013"]


def test_legacy_pragma_spelling_no_longer_suppresses(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/core/legacy.py": (
            "import random\n"
            "from repro.sqlengine import Engine\n"
            "\n"
            "\n"
            "def f(db):\n"
            "    rng = random.Random()  # lint: allow-unseeded\n"
            "    return rng, Engine(db)  # lint: allow-engine\n"
        ),
    })
    assert codes(result) == ["CDL011", "CDL030"]
    assert result.suppressed == 0
    # Each message names the one spelling that does suppress.
    assert "# cedarlint: disable=CDL011" in result.findings[0].message
    assert "# cedarlint: disable=CDL030" in result.findings[1].message


def test_select_runs_only_named_codes(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/core/multi.py": (
            "import sqlite3\n"
            "import random\n"
            "\n"
            "rng = random.Random()\n"
        ),
    }, select={"CDL031"})
    assert codes(result) == ["CDL031"]


def test_syntax_error_reported_as_cdl001(tmp_path):
    result = lint_fixture(tmp_path, {
        "src/repro/core/broken.py": "def f(:\n",
    })
    assert codes(result) == ["CDL001"]
    assert result.findings[0].severity == "error"


# -- baseline integration -----------------------------------------------------


def test_baselined_warnings_do_not_fail_the_run(tmp_path):
    files = {
        "src/repro/core/timed.py":
            "import time\n\n\ndef f():\n    return time.monotonic()\n",
    }
    first = lint_fixture(tmp_path, files)
    assert codes(first) == ["CDL010"]

    baseline_path = tmp_path / "baseline.json"
    Baseline.write(baseline_path, first.findings)
    again = lint_fixture(
        tmp_path, files, baseline=Baseline.load(baseline_path)
    )
    assert again.new == []
    assert [d.code for d in again.baselined] == ["CDL010"]
    assert again.exit_code == 0


def test_baseline_match_survives_line_churn(tmp_path):
    files = {
        "src/repro/core/churn.py":
            "import time\n\n\ndef f():\n    return time.monotonic()\n",
    }
    baseline_path = tmp_path / "baseline.json"
    Baseline.write(baseline_path, lint_fixture(tmp_path, files).findings)

    # Same hazard line, shifted down by an unrelated edit.
    files["src/repro/core/churn.py"] = (
        "import time\n\n\ndef unrelated():\n    return 0\n\n\n"
        "def f():\n    return time.monotonic()\n"
    )
    result = lint_fixture(
        tmp_path, files, baseline=Baseline.load(baseline_path)
    )
    assert result.new == []
    assert len(result.baselined) == 1
