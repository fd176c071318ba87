"""Golden digests of the checkpoint's result sections.

The ``results`` and ``emission`` sections of a format-2 checkpoint are
pinned byte for byte (SHA-256 of their canonical JSON): a change to how
result streams are stored in memory must not change what
``checkpoint_rapq`` writes.  ``stats`` is left out on purpose — its
``expiry_seconds`` is wall-clock time, so whole-checkpoint bytes differ
from run to run.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.checkpoint import canonical_bytes, checkpoint_rapq, restore_rapq
from repro.core.columnar import ColumnarRAPQEvaluator
from repro.core.rapq import RAPQEvaluator
from repro.datasets.synthetic import UniformStreamGenerator
from repro.graph.stream import with_deletions
from repro.graph.window import WindowSpec

QUERY = "a b* c"
WINDOW = WindowSpec(size=30, slide=3)

#: Digests of the sections for the stream below, per result semantics.
GOLDEN = {
    "implicit": {
        "events": 9950,
        "results": "858c4d8146a07f057a67a1c6e1aa8755163fe0c60b20915e65dc346146aca210",
        "emission": "a8a9b45ee76aef26a895676ac558a448eb6f23ac29c96d562d5969049f43aaae",
    },
    "explicit": {
        "events": 17470,
        "results": "bb085f462d1343f13cce47c42b8f9ab3b4fdf5a94f6fbbd2695742b51d43b2b9",
        "emission": "d50fe93b11cb6e7df1c68cf5d343d2720bdc38a8c902d3341bedf3f7e6daf3a7",
    },
}


@pytest.fixture(scope="module")
def stream():
    generator = UniformStreamGenerator(
        num_vertices=40, labels=("a", "b", "c"), edges_per_timestamp=4, seed=25
    )
    return with_deletions(list(generator.generate(3000)), 0.1, seed=25)


def _digest(section) -> str:
    return hashlib.sha256(canonical_bytes(section)).hexdigest()


@pytest.mark.parametrize("semantics", sorted(GOLDEN))
@pytest.mark.parametrize("evaluator_cls", [RAPQEvaluator, ColumnarRAPQEvaluator])
def test_result_sections_match_golden_digests(stream, semantics, evaluator_cls):
    evaluator = evaluator_cls(QUERY, WINDOW, result_semantics=semantics)
    evaluator.process_stream(stream)
    state = checkpoint_rapq(evaluator)
    golden = GOLDEN[semantics]
    assert len(state["results"]) == golden["events"]
    assert any(not row["positive"] for row in state["results"])
    assert _digest(state["results"]) == golden["results"]
    assert _digest(state["emission"]) == golden["emission"]


@pytest.mark.parametrize("semantics", sorted(GOLDEN))
def test_restored_evaluator_writes_the_same_sections(stream, semantics):
    evaluator = RAPQEvaluator(QUERY, WINDOW, result_semantics=semantics)
    evaluator.process_stream(stream)
    state = checkpoint_rapq(restore_rapq(checkpoint_rapq(evaluator)))
    assert _digest(state["results"]) == GOLDEN[semantics]["results"]
    assert _digest(state["emission"]) == GOLDEN[semantics]["emission"]
