"""The checked-in reference: shape, self-consistency, and agreement
with an inline run of the served documents."""

import random

from cedarbench import golden, workloads
from cedarbench.golden import Reference


def test_reference_covers_every_served_document():
    for profile, count in ((workloads.DEFAULT_PROFILE, 25),
                           (workloads.PAPER_MIX_X3, 294)):
        reference = Reference.load(profile)
        for dataset, index in workloads.interleaved(profile):
            truth = reference.truth(dataset, index)
            assert truth and all(isinstance(v, bool) for v in truth.values())
            assert len(reference.digest(dataset, index)) == 16
        assert len(workloads.interleaved(profile)) == count


def test_stored_digests_match_the_stored_verdicts():
    import json

    with open(golden.GOLDEN_PATH) as handle:
        payload = json.load(handle)
    assert payload["seed"] == golden.GOLDEN_SEED
    for documents in payload["profiles"].values():
        for entry in documents.values():
            verdicts = {
                claim: "correct" if code[1] == "C" else "incorrect"
                for claim, code in entry["claims"].items()
            }
            assert Reference.digest_of(verdicts) == entry["digest"]


def test_digest_ignores_order_and_notices_one_flipped_verdict():
    verdicts = {"d/c0": "correct", "d/c1": "incorrect", "d/c2": "correct"}
    shuffled = dict(sorted(verdicts.items(), reverse=True))
    assert Reference.digest_of(shuffled) == Reference.digest_of(verdicts)
    flipped = dict(verdicts, **{"d/c1": "correct"})
    assert Reference.digest_of(flipped) != Reference.digest_of(verdicts)
    missing = {k: v for k, v in verdicts.items() if k != "d/c2"}
    assert Reference.digest_of(missing) != Reference.digest_of(verdicts)


def test_inline_run_of_the_default_profile_reproduces_the_reference():
    """What ``--regen-golden`` does, on the 25 documents the CLIs serve,
    in an order the reference was not generated in."""
    bundles = {dataset: build() for dataset, build in
               golden.dataset_builders(workloads.DEFAULT_PROFILE).items()}
    order = workloads.interleaved(workloads.DEFAULT_PROFILE)
    random.Random(99).shuffle(order)
    fresh = golden.first_submission_verdicts(bundles, order)
    reference = Reference.load(workloads.DEFAULT_PROFILE)
    for dataset, index in order:
        assert fresh[f"{dataset}/{index}"]["digest"] == reference.digest(
            dataset, index)
