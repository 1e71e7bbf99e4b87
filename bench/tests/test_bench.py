"""Checks of the benchmark itself.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Summary, Tracer, self_times  # noqa: E402


def _inputs(seed: int) -> list[bytes]:
    units = [gen.transpile_unit(seed, i) for i in (0, 1, 255, 256, 4099)]
    align = gen.alignment_data(seed, groups=12, dim=8, occurrences=3, sigma=0.1, theta_deg=15)
    return (
        [repr(u).encode() for u in units]
        + [repr(sorted(gen.corpus_files(seed, 4).items())).encode()]
        + [repr(gen.eval_examples(seed, 9)).encode()]
        + [a.tobytes() for a in (align.h1, align.y1, align.h2, align.y2)]
        + [repr((align.vocab1, align.vocab2, align.gold)).encode()]
    )


def test_same_seed_gives_byte_identical_inputs():
    assert _inputs(5) == _inputs(5)
    assert _inputs(5) != _inputs(6)


def test_tiny_transpile_mix_run_matches_every_expected_output(tmp_path):
    wl = workloads.TranspileMix(seed=3, work=tmp_path)
    wl.prepare()
    loop = run.Loop(wl, started=0.0)
    loop.same_ops(12, tracer=None)
    tracer = Tracer()
    loop.same_ops(4, tracer)
    assert loop.failed == 0, loop.errors
    assert wl.quality()["transpile_em"] == 1.0
    layers = workloads.layer_metrics(Summary(tracer.spans), 4)
    # canonicalize, reinsert and the target canonicalize each unparse once
    assert layers["canon.ast_unparses_per_unit"] == 3
    assert layers["pipeline.fixture_loads"] == 4
    assert layers["canon.canonicalize_src_ms"] > 0 and layers["train.step_ms"] == 0


def test_self_time_arithmetic_on_a_hand_built_tree():
    #  a [0, 10] -> b [1, 4] -> d [2, 3]
    #            -> c [5, 9]
    spans = [
        [0, "a", 0.0, 10.0, -1, "op0", None],
        [1, "b", 1.0, 4.0, 0, "op0", None],
        [2, "d", 2.0, 3.0, 1, "op0", {"x": 2}],
        [3, "c", 5.0, 9.0, 0, "op0", {"x": 1}],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    s = Summary(spans)
    assert s.self_total == {"a": 3.0, "b": 2.0, "d": 1.0, "c": 4.0}
    assert s.within[("a", "d")] == 1 and s.within_time[("a", "d")] == 1.0
    assert s.within[("a", "x")] == 3 and s.within[("b", "x")] == 2
    assert s.within[("d", "x")] == 2 and ("c", "d") not in s.within
    assert s.counters == {"x": 3}


def test_tracer_keeps_call_order_and_restores_wrapped_functions():
    mod = SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    tracer.wrap(mod, "outer", "outer", step=True)
    tracer.wrap(mod, "inner", "inner")
    tracer.begin_request("op7")
    assert mod.outer(1) == 4
    tracer.restore()
    assert (mod.inner, mod.outer) == originals
    outer, inner = tracer.spans
    assert [outer[1], inner[1]] == ["outer", "inner"]
    assert inner[4] == outer[0] and outer[4] == -1
    assert outer[5] == inner[5] == "op7/step1"
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]
