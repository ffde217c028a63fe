"""The checked-in reference the output check compares against.

``bench/golden/ref-seed7.json`` holds, per served document, the verdict
each claim gets on the document's *first* submission and the claim's
ground-truth label. It is produced by ``run.py --regen-golden`` through
an unstarted ``VerificationService`` + ``ServiceApp`` — no threads, no
HTTP, no batching: jobs are admitted and then drained inline, one after
the other, in seed 7's request order.

The file serves every seed. A first submission's verdicts do not depend
on what was submitted before it (temperature-0 calls are a function of
the prompt; retry draws are seeded per claim), and ``--regen-golden``
proves that each time by replaying the reverse order and requiring the
same digests. Repeat submissions *do* differ — the sample re-pass draws
afresh — so hot traffic is checked for shape only, and its warm pass
(the first submission of each document) against the digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from typing import Mapping

from . import BENCH_DIR
from .workloads import DEFAULT_PROFILE, PAPER_MIX_X3, interleaved

GOLDEN_PATH = os.path.join(BENCH_DIR, "golden", "ref-seed7.json")
GOLDEN_SEED = 7

#: Profile tuple -> the name it is filed under in the reference.
PROFILE_NAMES = {DEFAULT_PROFILE: "default", PAPER_MIX_X3: "paper-x3"}

_LABEL = {True: "C", False: "I"}
_VERDICT = {"correct": "C", "incorrect": "I"}


class Reference:
    """One profile's slice of the reference file."""

    def __init__(self, documents: Mapping[str, dict]) -> None:
        self._documents = documents

    @classmethod
    def load(cls, profile: tuple, path: str = GOLDEN_PATH) -> "Reference":
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls(payload["profiles"][PROFILE_NAMES[profile]])

    @staticmethod
    def digest_of(verdicts: Mapping[str, str]) -> str:
        """Order-free digest of ``claim id (sans request tag) -> verdict``."""
        lines = "\n".join(f"{claim}={verdict}"
                          for claim, verdict in sorted(verdicts.items()))
        return hashlib.sha256(lines.encode()).hexdigest()[:16]

    def digest(self, dataset: str, document: int) -> str:
        return self._documents[f"{dataset}/{document}"]["digest"]

    def truth(self, dataset: str, document: int) -> dict[str, bool]:
        """Ground truth: claim id -> the claim is actually correct."""
        claims = self._documents[f"{dataset}/{document}"]["claims"]
        return {claim: code[0] == "C" for claim, code in claims.items()}


# -- regeneration (imports the system under test) ----------------------------


def dataset_builders(profile: tuple) -> dict:
    """The builders the profile's server uses (dataset name -> callable)."""
    sys.path.insert(0, BENCH_DIR)
    import serve  # bench/serve.py; puts src/ on sys.path
    from repro.service.http import DEFAULT_DATASETS

    return {"default": DEFAULT_DATASETS,
            "paper-x3": serve.PAPER_MIX_X3}[PROFILE_NAMES[profile]]


def first_submission_verdicts(bundles: Mapping, order: list) -> dict[str, dict]:
    """Submit ``order`` to a never-started service and drain it inline."""
    from repro.service.http import ServiceApp
    from repro.service.service import (
        ServiceConfig,
        VerificationService,
    )

    service = VerificationService(ServiceConfig(
        max_queue_depth=len(order), per_client_limit=len(order),
    ))
    app = ServiceApp(service, seed=0, datasets={
        name: (lambda bundle=bundle: bundle)
        for name, bundle in bundles.items()
    })
    job_ids = {}
    for dataset, document in order:
        status, body = app.submit({"dataset": dataset, "document": document})
        if status != 202:
            raise RuntimeError(f"reference submit refused: {status} {body}")
        job_ids[(dataset, document)] = body["job_id"]
    service.shutdown(drain=True)      # never started: runs the queue inline
    result: dict[str, dict] = {}
    for (dataset, document), job_id in job_ids.items():
        events = [event.to_dict()
                  for event in service.job(job_id).events_snapshot()]
        if events[-1]["event"] != "job_done":
            raise RuntimeError(f"reference job ended {events[-1]}")
        verdicts = {
            event["claim_id"].split("/", 1)[-1]: event["verdict"]
            for event in events if event["event"] == "claim_verdict"
        }
        labels = {
            claim.claim_id: bool(claim.metadata["label_correct"])
            for claim in bundles[dataset].documents[document].claims
        }
        result[f"{dataset}/{document}"] = {
            "digest": Reference.digest_of(verdicts),
            "claims": {
                claim: _LABEL[labels[claim]] + _VERDICT[verdict]
                for claim, verdict in sorted(verdicts.items())
            },
        }
    return result


def regenerate(path: str = GOLDEN_PATH) -> dict:
    """Rebuild the reference; refuses to write one that depends on the
    order documents were submitted in."""
    profiles = {}
    for profile, name in PROFILE_NAMES.items():
        bundles = {dataset: build() for dataset, build
                   in dataset_builders(profile).items()}
        order = interleaved(profile)
        random.Random(GOLDEN_SEED).shuffle(order)
        forward = first_submission_verdicts(bundles, order)
        backward = first_submission_verdicts(bundles, order[::-1])
        if forward != backward:
            differing = [key for key in forward
                         if forward[key] != backward[key]]
            raise RuntimeError(
                f"first-submission verdicts depend on request order for "
                f"{name}: {differing[:5]} - one reference cannot serve "
                f"every seed"
            )
        profiles[name] = dict(sorted(forward.items()))
    payload = {
        "about": "first-submission verdicts and ground-truth labels per "
                 "served document; claim code = label + verdict, "
                 "C correct / I incorrect; see cedarbench/golden.py",
        "seed": GOLDEN_SEED,
        "profiles": profiles,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return payload
