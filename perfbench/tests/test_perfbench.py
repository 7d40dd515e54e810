"""Tests of the benchmark harness itself (not of tentaclelab)."""

import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

from perfbench import hostspeed, trace, workloads  # noqa: E402
from perfbench.stats import (block_means, percentile, summarize,  # noqa
                             tail_percentile)

cli = workloads.load_program(ROOT)


@pytest.mark.parametrize("n, want", [(1, None), (19, None), (20, 50.0),
                                     (99, 50.0), (100, 90.0), (999, 90.0),
                                     (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want
    if want is not None:
        xs = list(range(1, n + 1))
        assert sum(x > percentile(xs, want) for x in xs) >= 10


def test_summarize_reports_median_tail_and_count():
    s = summarize(float(x) for x in range(1, 101))
    assert s == {"n": 100, "p50": 50.5, "tail": 90.0, "tail_pct": 90.0}
    assert summarize([3.0, 1.0, 2.0])["tail"] is None


def test_block_means_split_passes_into_consecutive_blocks():
    assert block_means([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) == \
        [1.5, 4.0, 6.5]
    assert block_means([3.0, 5.0]) == [3.0, 5.0]
    assert block_means([2.0]) == [2.0]


def test_timed_step_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([0.02, 0.03])
    monkeypatch.setattr(hostspeed, "probe", lambda: next(probes))
    runner = workloads.Runner(cli.main, workloads.Ledger())
    out, elapsed = runner.timed(lambda: "done")
    assert out == "done"
    assert runner.probes == [0.02, 0.03]
    assert runner.ref_seconds == pytest.approx(
        elapsed * hostspeed.REF_PROBE_S / 0.025)


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > aa [2, 3]; root > b [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = trace.Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("aa"):
                pass
        with tracer.span("b"):
            pass
    names = [s.name for s in tracer.spans]
    parents = [s.parent for s in tracer.spans]
    assert names == ["root", "a", "aa", "b"]
    assert parents == [-1, 0, 1, 0]
    assert trace.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]


def _namespaces():
    mods = {k: m for k, m in sys.modules.items()
            if k.startswith(trace.PACKAGE + ".")}
    sim = mods[f"{trace.PACKAGE}.sim"]
    mods["SimTrace"] = sim.SimTrace
    return {k: dict(vars(m)) for k, m in mods.items()}


def test_install_nests_spans_and_uninstall_restores_namespaces(tmp_path):
    import tentaclelab.regressor as regressor
    import tentaclelab.sim as sim
    from tentaclelab.actuation import ProgramSpec, build_program

    before = _namespaces()
    tracer = trace.Tracer()
    inst = trace.install(tracer)
    try:
        assert cli.simulate is sim.simulate
        assert sim.simulate.__wrapped__ is before["tentaclelab.sim"][
            "simulate"]
        prog = build_program(ProgramSpec(duration_s=0.5, dt=0.005,
                                         amplitude_deg=10.0,
                                         frequency_hz=2.0))
        tr = cli.simulate(prog, sim.SimParams())
        path = str(tmp_path / "trace.csv")
        tr.to_csv(path)
        sim.SimTrace.from_csv(path)
        w = regressor.init_weights(3, 2, 4, 0)
        seq = regressor.LabeledSequence(np.ones((7, 3)), np.zeros((7, 2)),
                                        0.01)
        regressor.gradients(w, [seq])
    finally:
        inst.uninstall()

    spans = {s.name: s for s in tracer.spans}
    tips = spans["kinematics.tip_positions"]
    assert tracer.spans[tips.parent].name == "sim.simulate"
    assert spans["sim.simulate"].counts == {"steps": 100}
    assert tips.counts["evals"] == 100 * trace._quadrature_nodes()
    size = os.path.getsize(path)
    assert spans["sim.SimTrace.to_csv"].counts == {"bytes": size}
    assert spans["sim.SimTrace.from_csv"].counts == {"bytes": size}
    assert spans["regressor.gradients"].counts == {
        "steps": 7, "flops": 7 * trace.lstm_flops_per_step(4, 3, 2)[1]}

    after = _namespaces()
    assert after.keys() == before.keys()
    for key, ns in before.items():
        assert after[key].keys() == ns.keys(), key
        changed = [a for a in ns if after[key][a] is not ns[a]]
        assert not changed, (key, changed)


def test_bad_config_exit_1_counts_as_failed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": 99}))
    ledger = workloads.Ledger()
    runner = workloads.Runner(cli.main, ledger)
    with pytest.raises(workloads.PassAborted):
        runner.run(["dataset", "--config", bad, "--out", tmp_path / "d"])
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert "exit 1" in ledger.failures[0]


def test_config_digest_matches_program_hash():
    from tentaclelab.config import config_hash, default_config
    cfg = default_config()
    assert workloads.config_digest(cfg.to_dict()) == config_hash(cfg)


def test_benchmark_json_names_match_reported_metrics():
    from perfbench import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        trace.per_layer_spec()
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)


def test_loop_runs_min_steps_even_past_its_time():
    from perfbench import run
    state = run.RunState(workloads.Learn, 0, None, cli.main)
    steps = []
    state.loop(0, lambda: steps.append(1), min_steps=2)
    assert len(steps) == 2
    state.loop(0, lambda: steps.append(1))
    assert len(steps) == 3


def test_setup_runs_in_a_child_and_hands_back_its_results(tmp_path):
    from perfbench import run
    state = run.RunState(workloads.Learn, 3, str(tmp_path), cli.main)
    state.setup()
    assert len(state.setup_times) == run.SETUP_REPEATS
    assert all(wall > 0 and ref > 0 for wall, ref in state.setup_times)
    assert state.workload.seed == 3
    assert os.path.isfile(state.workload.cfg_path)
    # the child's check that the three set-ups are byte identical
    assert (state.ledger.attempted, state.ledger.failed) == (1, 0)
    assert state.aborted is None
