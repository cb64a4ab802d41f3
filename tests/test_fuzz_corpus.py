"""The fuzzer's regression corpus and a small seeded campaign.

Every file in ``tests/corpus/`` is a minimized spec for a bug that has
been fixed; replaying it must pass forever.  The seeded campaign is a
fast CI-sized slice of the full ``python -m repro.fuzz`` run.
"""

import os

from repro.fuzz.corpus import load_corpus, replay_corpus, save_case
from repro.fuzz.generators import generate_case, spec_to_statement
from repro.fuzz.oracle import run_case
from repro.fuzz.runner import run_fuzz
from repro.fuzz.shrink import shrink_case

import random

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def test_corpus_is_nonempty_and_wellformed():
    entries = load_corpus(CORPUS_DIR)
    assert len(entries) >= 8
    for filename, entry in entries:
        assert entry["name"], filename
        assert entry["description"], filename
        assert entry["spec"]["kind"], filename


def test_corpus_replay_passes():
    assert replay_corpus(CORPUS_DIR) == []


def test_seeded_fuzz_run_survives():
    """A CI-sized slice of the campaign: zero surviving failures."""
    report = run_fuzz(seed=7, cases=60, corpus_dir=CORPUS_DIR)
    assert report.ok, (report.failures, report.regressions)
    # The generator mix covers every oracle family.
    assert {"foreign_table", "query", "pushdown"} <= set(report.kinds)


def test_generator_is_deterministic():
    a = [generate_case(random.Random(7 * 1_000_003 + i)) for i in range(20)]
    b = [generate_case(random.Random(7 * 1_000_003 + i)) for i in range(20)]
    assert a == b


def test_generated_specs_are_statement_convertible():
    for i in range(50):
        spec = generate_case(random.Random(i))
        if spec["kind"] in ("pushdown", "partition", "memo"):
            continue
        spec_to_statement(spec)  # must not raise


def test_shrinker_minimizes_while_preserving_failure():
    spec = {
        "kind": "foreign_table",
        "name": "some long irrelevant'name",
        "columns": [
            ["keep'me", ["VARCHAR", 25]],
            ["extra column", ["DOUBLE"]],
            ["another", ["DATE"]],
        ],
        "server": "srv",
        "remote_object": "obj",
    }

    # Synthetic failure predicate: "fails" while any identifier has a
    # quote.  The shrinker must keep a quote but shed everything else.
    def still_fails(candidate):
        texts = [candidate["name"]] + [
            name for name, _ in candidate["columns"]
        ]
        return any("'" in text for text in texts)

    shrunk = shrink_case(spec, still_fails)
    assert still_fails(shrunk)
    assert len(shrunk["columns"]) == 1
    import json

    assert len(json.dumps(shrunk)) < len(json.dumps(spec))


def test_save_case_roundtrips(tmp_path):
    spec = {"kind": "drop", "name": "t", "objkind": "TABLE",
            "if_exists": True}
    save_case(str(tmp_path), "example", "why", spec)
    entries = load_corpus(str(tmp_path))
    assert entries[0][1]["spec"] == spec
    assert run_case(spec) == []
