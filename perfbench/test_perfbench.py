"""The benchmark's own tests, at toy and desk size.

Run from the repository root: python -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import hostspeed
import run
import spans
from checker import check_assignment
from generator import generate_grid
from metrics import END_TO_END, PER_LAYER
from shelterplan import AssignmentConfig, ImpedanceParameter, solve_lower_level, validate_network
from workloads import WORKLOADS, EnumerateTown, GridM, StudyTown

ROOT = Path(__file__).resolve().parent.parent
TINY_GRID = {"cols": 6, "rows": 5, "zones": 6, "candidates": 4, "demand_scale": 30.0}


def _grid_signature(instance):
    network = instance.network
    return (
        [(n.id, n.kind) for n in network.nodes],
        [(l.id, l.from_node, l.to_node, l.capacity_vph, l.free_flow_min) for l in network.links],
        [(c.node_id, c.capacity_vph) for c in instance.shelters.candidates],
        sorted(instance.demand.productions.items()),
    )


def test_generator_is_deterministic_and_valid():
    first = generate_grid(7, **TINY_GRID)
    assert _grid_signature(first) == _grid_signature(generate_grid(7, **TINY_GRID))
    assert _grid_signature(first) != _grid_signature(generate_grid(8, **TINY_GRID))
    assert validate_network(first.network, first.shelters) == []
    size = TINY_GRID["cols"] * TINY_GRID["rows"] + TINY_GRID["zones"] + TINY_GRID["candidates"]
    assert len(first.network.nodes) == size


def test_generator_structure_does_not_depend_on_the_seed():
    counts = {
        (len(g.network.nodes), len(g.network.links), len(g.demand.productions))
        for g in (generate_grid(seed, **TINY_GRID) for seed in range(5))
    }
    assert len(counts) == 1


def test_generator_rejects_impossible_sizes():
    with pytest.raises(ValueError):
        generate_grid(0, cols=4, rows=4, zones=5, candidates=2, demand_scale=10.0)
    with pytest.raises(ValueError):
        generate_grid(0, cols=4, rows=4, zones=2, candidates=2, demand_scale=0.0)


@pytest.fixture(scope="module")
def solved_grid():
    instance = generate_grid(3, **TINY_GRID)
    config = AssignmentConfig(max_iterations=400, gap_tolerance=1e-9, step_rule="msa")
    result = solve_lower_level(
        instance.network,
        [c.node_id for c in instance.shelters.candidates],
        instance.demand,
        ImpedanceParameter(1.0),
        config,
    )
    return instance, result


def test_checker_accepts_a_solved_instance(solved_grid):
    instance, result = solved_grid
    verdict = check_assignment(instance.network, result, instance.demand, 1.0, 1e-3)
    assert verdict.violations == ()
    assert verdict.share_residual < 1e-2
    assert 0.0 <= verdict.route_gap < 1e-3


def test_checker_flags_scaled_od_flows(solved_grid):
    instance, result = solved_grid
    scaled = replace(result, od_flows={k: 1.1 * v for k, v in result.od_flows.items()})
    verdict = check_assignment(instance.network, scaled, instance.demand, 1.0, 1e-3)
    assert any("sends" in v for v in verdict.violations)
    assert any("net inflow" in v for v in verdict.violations)


def test_checker_flags_negative_and_unbalanced_link_flows(solved_grid):
    instance, result = solved_grid
    link = max(result.link_flows, key=result.link_flows.get)
    broken = replace(result, link_flows={**result.link_flows, link: -1.0})
    verdict = check_assignment(instance.network, broken, instance.demand, 1.0, 1e-3)
    assert any("negative link flow" in v for v in verdict.violations)
    assert any("net inflow" in v for v in verdict.violations)


def test_checker_measures_shares_against_logit(solved_grid):
    instance, result = solved_grid
    # move each origin's whole demand to one shelter: conserved, but not logit
    moved = {}
    for (origin, shelter), _ in result.od_flows.items():
        total = sum(f for (o, _), f in result.od_flows.items() if o == origin)
        first = min(s for (o, s) in result.od_flows if o == origin)
        moved[(origin, shelter)] = total if shelter == first else 0.0
    verdict = check_assignment(
        instance.network, replace(result, od_flows=moved), instance.demand, 1.0, 1e-3
    )
    assert verdict.share_residual > 0.1
    assert not verdict.equilibrium_ok


def test_recorder_self_time_and_missing_layer(monkeypatch):
    monkeypatch.setattr(spans, "LAYERS", spans.LAYERS + (("shelterplan.ga", "no_such_layer"),))
    recorder = spans.Recorder()
    with recorder.installed():
        import shelterplan.ga as ga

        assert ga.solve_lower_level.__name__ == "traced"
        with recorder.span("outer") as root:
            with recorder.span("inner"):
                pass
    assert ga.solve_lower_level.__name__ == "solve_lower_level"
    assert recorder.missing == ["ga.no_such_layer"]
    outer, inner = recorder.spans
    assert inner.parent == root
    times = recorder.self_times(recorder.subtree(root))
    assert times["outer"] == pytest.approx(outer.duration - inner.duration)


def test_solve_span_counts_a_cap_only_when_not_converged():
    config = AssignmentConfig(max_iterations=5)
    at_cap = SimpleNamespace(iterations=5, converged=True)
    assert spans.solve_attrs((None,) * 5, {"config": config}, at_cap)["capped"] is False
    stopped = SimpleNamespace(iterations=5, converged=False)
    assert spans.solve_attrs((None, None, None, None, config), {}, stopped)["capped"] is True


def test_stopwatch_takes_the_snippet_out_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    watch = hostspeed.Stopwatch()
    with watch.running():
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(watch.samples) >= 4  # one before the block, then one per 10 ms
    assert 0.05 < watch.seconds < 0.1
    assert watch.norm_seconds == pytest.approx(
        watch.seconds * hostspeed.NOMINAL_SNIPPET_S / statistics.fmean(watch.samples)
    )


def test_timed_calls_run_whole_panels():
    class Panel3:
        panel = 3

        def call(self, index, recorder):
            watch = hostspeed.Stopwatch()
            watch.seconds = 1.0
            return watch, None

        def setup(self):
            return {"total": 1.0}

    calls = run.timed_calls(Panel3(), 4.0, lambda call: None, [])
    assert [c.index for c in calls] == list(range(6))
    # inputs 0, 1, 2 have medians 1.5, 2.5, 3.5 over calls (0, 3), (1, 4), (2, 5)
    assert run.panel_mean(calls, 3, lambda c: c.index) == 2.5


def test_ledger_flags_a_changed_digest(tmp_path):
    ledger = run.Ledger(tmp_path / "digests.json", "w|1|code")
    assert ledger.record("k", "aaa") is None
    ledger.save()
    again = run.Ledger(tmp_path / "digests.json", "w|1|code")
    assert again.record("k", "aaa") is None
    assert again.record("k", "bbb") == "aaa"


class DeskStudy(StudyTown):
    town = Path("data") / "desk_a"
    scenario_files = ("scenario.json",)


class DeskEnumerate(EnumerateTown):
    town = Path("data") / "desk_a"
    scenario_files = ("scenario.json",)


class TinyGrid(GridM):
    size = TINY_GRID


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [DeskStudy, DeskEnumerate, TinyGrid])
def test_every_named_metric_is_emitted(workload, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.01)
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    argv = ["--workload", workload.name, "--seed", "5", "--seconds", "0.3", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("call 1 untraced") for line in lines)
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert list(doc["metrics"]) == [name for name, *_ in expected]
    for (name, unit, *_), metric in zip(expected, doc["metrics"].values()):
        assert metric["unit"] == unit
        assert math.isfinite(metric["value"])
    if trace == 0:
        assert all(doc["metrics"][name]["value"] > 0 for name, *_ in END_TO_END)
    else:
        assert (tmp_path / f"spans-{workload.name}-seed5.json").is_file()
    # the same seed again: identical digests, so the ledger sees no change
    assert run.main(argv) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is True


def test_run_refuses_a_directory_without_the_program(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "grid-m", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
