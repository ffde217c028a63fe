"""The observability layer's house invariants, end to end.

1. **Tracing is invisible to results.** Reports (JSON and markdown) are
   byte-identical with tracing on and off — spans observe the run, they
   never steer it.
2. **Span trees are deterministic.** A parallel run and a sequential run
   of the same documents produce byte-identical trees once wall times
   are stripped: span identity is structural (parent-scoped sequence
   numbers, absorbed in submission order), never scheduling luck.
"""

import json

from repro.core import ScheduleEntry, VerifierConfig
from repro.core.reports import document_spans, span_waterfall, to_json, \
    to_markdown
from repro.datasets import build_aggchecker
from repro.experiments import build_cedar
from repro.llm import LatencySimulatingClient
from repro.obs.tracer import Tracer

SEED = 3


def run_verification(workers, tracer=None, blocking=False):
    """One full verification of a fresh bundle; returns bundle and run.

    The SQL result cache is disabled: spans deliberately carry no
    cache-status attributes, and running cache-less keeps even the
    execution *counts* identical between arms (a warm shared cache
    would elide executions in whichever arm ran second). ``blocking``
    puts each model behind a 0 s sleep, so with ``workers > 1`` its
    claims run on the pool rather than inline.
    """
    bundle = build_aggchecker(document_count=4, total_claims=24)
    system = build_cedar(
        bundle, seed=SEED,
        config=VerifierConfig(workers=workers, sql_cache_size=0),
    )
    if blocking:
        for method in system.methods:
            method.client = LatencySimulatingClient(method.client, 0.0)
    schedule = [ScheduleEntry(method, 2) for method in system.methods]
    run = system.verifier.verify_documents(
        bundle.documents, schedule, tracer=tracer
    )
    return bundle, system, run


def timeless_tree(tracer):
    return json.dumps(tracer.tree(include_times=False), sort_keys=True)


class TestParallelEqualsSequential:
    def test_span_trees_identical_modulo_wall_times(self):
        sequential = Tracer(trace_id="seq")
        _, _, seq_run = run_verification(workers=1, tracer=sequential)

        parallel = Tracer(trace_id="par")
        bundle, _, par_run = run_verification(workers=4, tracer=parallel,
                                              blocking=True)

        assert sequential.span_count() > 100  # real coverage, not a stub
        assert sequential.span_count() == parallel.span_count()
        assert timeless_tree(sequential) == timeless_tree(parallel)
        # And the runs themselves agreed, so the trees describe the
        # same verification.
        assert [c.correct for c in bundle.claims] == [
            c.correct for c in bundle.claims
        ]
        assert len(seq_run.reports) == len(par_run.reports)

    def test_tree_covers_the_span_taxonomy(self):
        tracer = Tracer(trace_id="kinds")
        run_verification(workers=1, tracer=tracer)
        kinds = {span.kind for root in tracer.roots
                 for span in root.walk()}
        assert {"document", "stage", "method", "llm_call",
                "plausibility", "sql_execute"} <= kinds
        # Roots are documents only; everything else nests below them.
        assert {root.kind for root in tracer.roots} == {"document"}


class TestTracingIsInvisible:
    def test_reports_byte_identical_with_tracing_on_and_off(self):
        bundle_off, system_off, run_off = run_verification(workers=1)

        tracer = Tracer(trace_id="on")
        bundle_on, system_on, run_on = run_verification(
            workers=1, tracer=tracer
        )
        assert tracer.span_count() > 0  # tracing actually happened

        for document_off, document_on in zip(
            bundle_off.documents, bundle_on.documents
        ):
            assert to_json(document_off, run_off) \
                == to_json(document_on, run_on)
            assert to_markdown(document_off, run_off) \
                == to_markdown(document_on, run_on)

    def test_waterfall_is_strictly_opt_in(self):
        tracer = Tracer(trace_id="wf")
        bundle, _, run = run_verification(workers=1, tracer=tracer)
        document = bundle.documents[0]
        plain = to_markdown(document, run)
        traced = to_markdown(document, run, tracer=tracer)
        assert "Trace waterfall" not in plain
        assert "Trace waterfall" in traced
        # The traced rendering only ever *appends* to the plain one.
        assert traced.startswith(plain)

    def test_waterfall_renders_one_line_per_span(self):
        tracer = Tracer(trace_id="wf2")
        bundle, _, _ = run_verification(workers=1, tracer=tracer)
        roots = document_spans(tracer, bundle.documents[0].doc_id)
        assert roots
        text = span_waterfall(roots)
        expected = sum(1 for root in roots for _ in root.walk())
        assert len(text.splitlines()) == expected
