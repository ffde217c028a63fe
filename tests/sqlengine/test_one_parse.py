"""One parse per statement on the system side.

The static analyzer and the executor both look a statement up in the
shared plan cache before parsing it, so over a whole experiment every
parseable statement is parsed once, by whichever of the two sees it
first. Malformed SQL is parsed again on every attempt, by design: the
plan cache keeps only successful parses. (The simulated model's own
parses, in ``repro.llm.corruption``, stand in for the model and are not
counted.)
"""

from collections import Counter

from repro.experiments.table2 import run_table2
from repro.sqlengine import analyzer, executor
from repro.sqlengine.planner import normalize_sql


def test_table2_parses_each_parseable_statement_once(monkeypatch):
    parses: Counter = Counter()
    sites: dict[str, Counter] = {"analyzer": Counter(), "executor": Counter()}
    malformed = set()

    for site, module in (("analyzer", analyzer), ("executor", executor)):
        real = module.parse_select

        def counted(sql, real=real, site=site):
            key = normalize_sql(sql)
            try:
                statement = real(sql)
            except Exception:
                malformed.add(key)
                raise
            parses[key] += 1
            sites[site][key] += 1
            return statement

        monkeypatch.setattr(module, "parse_select", counted)

    run_table2(fast=True)

    assert sites["analyzer"] and sites["executor"]
    repeated = {key: count for key, count in parses.items() if count > 1}
    assert repeated == {}
    assert not malformed & set(parses)
