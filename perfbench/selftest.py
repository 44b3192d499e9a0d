"""The benchmark's own tests: span arithmetic, wrapper install/restore,
every workload end to end at a tiny scale, exact counters, and the
refusals (wrong answer, missing program).

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from blendbench import common, runner  # noqa: E402
from blendbench.tracer import Patch, Span, Tracer, covered, self_time  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--scale", "0.05", "--seconds", "0.4", "--min-reads", "40"]
EXACT_COUNTERS = (
    "core.mc.candidates",
    "core.mc.survivors",
    "core.mc.validated",
    "engine.sql_calls",
    "lake.gathered_rows",
    "snapshot.bytes_written",
)


def _run(tmp_path: Path, workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    completed = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--out", str(tmp_path), *TINY],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


# -- span arithmetic -------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == 4.0
    assert covered(0.0, 10.0, [(-5.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.5, 2.7), (20.0, 30.0)]) == 1.0


def test_self_time_subtracts_only_direct_children():
    parent = Span(1, "core.discover", 0.0, 10.0)
    seeker_a = Span(2, "core.seeker.SC", 1.0, 3.0, parent=1)
    seeker_b = Span(3, "core.seeker.KW", 2.0, 5.0, parent=1)
    merge = Span(4, "core.merge_partials", 9.0, 12.0, parent=1)
    # A grandchild lies inside its parent's span: it never changes the
    # grandparent's self time.
    engine = Span(5, "engine.sql", 1.5, 2.5, parent=2)
    children = [seeker_a, seeker_b, merge]
    assert self_time(parent, children) == pytest.approx(5.0)
    only_seekers = self_time(parent, children, include=lambda s: s.name.startswith("core.seeker."))
    assert only_seekers == pytest.approx(6.0)
    assert self_time(seeker_a, [engine]) == pytest.approx(1.0)


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls, x


def test_wrappers_record_parents_and_restore_originals():
    tracer = Tracer()
    original_method = vars(_Target)["method"]
    original_build = vars(_Target)["build"]
    patches = [
        Patch(_Target, "method", "inner", on_exit=lambda span, a, k, r: span.attrs.update(r=r)),
        Patch(_Target, "build", "outer"),
    ]
    with tracer.installed(patches):
        with tracer.request(7):
            with tracer.span("root"):
                assert _Target().method(1) == 2
                assert _Target.build(5) == (_Target, 5)
    assert vars(_Target)["method"] is original_method
    assert vars(_Target)["build"] is original_build
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["root"].span_id
    assert by_name["inner"].attrs == {"r": 2}
    assert by_name["outer"].rid == 7
    assert _Target().method(1) == 2 and len(tracer.spans) == 3


# -- the workloads, end to end -----------------------------------------------------------


# interactive and loaded_mc run on demand but are not in BENCHMARK.json
# (see README.md).
@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCHMARK["workloads"]] + ["interactive", "loaded_mc"]
)
def test_workload_runs_untraced_and_traced(tmp_path, workload):
    untraced = _result(_run(tmp_path, workload, 0))
    assert untraced["correct"] is True and untraced["failed"] == 0
    assert untraced["attempted"] >= 40
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    traced = _result(_run(tmp_path, workload, 1))
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
    for result in (untraced, traced):
        for name, metric in result["metrics"].items():
            assert metric["unit"] == units[name]
    record = json.loads((tmp_path / f"{workload}-seed3-trace1.json").read_text())
    assert record["environment"]["seed"] == 3
    assert (tmp_path / f"{workload}-seed3-trace1.spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("workload", ["interactive", "ingest_sharded"])
def test_single_caller_counters_repeat_exactly(tmp_path, workload):
    first = _result(_run(tmp_path / "a", workload, 1))["metrics"]
    second = _result(_run(tmp_path / "b", workload, 1))["metrics"]
    for name in EXACT_COUNTERS:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "ingest_sharded":
        assert first["snapshot.compactions"]["value"] >= 1
        assert first["snapshot.bytes_written"]["value"] > 0
    else:
        assert first["core.mc.candidates"]["value"] > 0


# -- refusals ------------------------------------------------------------------------------


def test_wrong_answer_is_refused(tmp_path, monkeypatch, capsys):
    with pytest.raises(common.WrongAnswer):
        common.check("q", [(1, 2.0)], [(1, 3.0)])

    class Broken:
        @staticmethod
        def run(options):
            common.check("q", [(1, 2.0)], [(2, 2.0)])

    monkeypatch.setattr(runner, "_workload", lambda name: Broken)
    args = runner.argparse.Namespace(
        workload="interactive", seed=1, seconds=0.1, trace=0, scale=0.05, min_reads=None,
        out=tmp_path,
    )
    assert runner.run(args, ROOT) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_checks_in_children_report_to_the_parent():
    def wrong(part):
        if part == 1:
            common.check("read 7 (SC)", [(1, 2.0)], [(2, 2.0)])

    def broken(part):
        raise ValueError("no index")

    common.in_children(common.CHECKERS, lambda part: None)
    with pytest.raises(common.WrongAnswer, match="read 7"):
        common.in_children(common.CHECKERS, wrong)
    with pytest.raises(RuntimeError, match="ValueError: no index"):
        common.in_children(common.CHECKERS, broken)
    assert not multiprocessing.active_children()


def test_exits_nonzero_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run(tmp_path / "out", "interactive", 0, cwd=bare)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
