"""Tests of the benchmark itself: tracing arithmetic, answer checks, seeding.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class ScriptedClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 4], which holds C [2, 3], and D [5, 9].
    t = tracer.Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10]))
    t.enter("A")
    t.enter("B")
    t.enter("C")
    t.exit()
    t.exit()
    t.enter("D")
    t.exit()
    t.exit()
    assert dict(t.self_s) == {"A": 3, "B": 2, "C": 1, "D": 4}
    assert sum(t.self_s.values()) == 10
    assert t.edges == {(None, "A"): 1, ("A", "B"): 1, ("B", "C"): 1, ("A", "D"): 1}


def test_self_time_of_recursive_span_counts_its_interval_once():
    t = tracer.Tracer(clock=ScriptedClock([0, 2, 6, 10]))
    t.enter("X")
    t.enter("X")
    t.exit()
    t.exit()
    assert t.self_s["X"] == 10
    assert t.calls["X"] == 2


def test_sized_spans_keep_samples_and_truthy_results_by_parent():
    class Report:
        def __init__(self, ok, simplex_count):
            self.ok, self.simplex_count = ok, simplex_count

        def __bool__(self):
            return self.ok

    t = tracer.Tracer(clock=ScriptedClock(range(100)))
    t.tag = "item"
    adjust = t.wrap("toric.adjusted_triangulation", lambda: [verify(False), verify(True)])
    verify = t.wrap("toric.verify_crepant", lambda ok: Report(ok, 4))
    adjust()
    rotation = ("toric.adjusted_triangulation", "toric.verify_crepant")
    assert t.edges[rotation] == 2 and t.truthy_edges[rotation] == 1
    assert t.sizes["toric.verify_crepant"] == 8
    assert [s[:2] for s in t.samples["toric.verify_crepant"]] == [("item", 4), ("item", 4)]


def test_slope_recovers_power_law():
    points = [(n, 3e-6 * n**2) for n in (10, 20, 40, 80)]
    assert math.isclose(tracer._slope(points), 2.0)
    assert tracer._slope([(10, 1.0), (10, 2.0)]) is None


def test_patches_cover_bindings_and_restore():
    from crepant import cli, exactmath, groups, toric

    originals = (exactmath.CycloInt.__mul__, groups.cyclo_div_exact, toric.smith_normal_form)
    t = tracer.Tracer()
    with tracer.Patches(t) as patches:
        assert groups.cyclo_div_exact is exactmath.cyclo_div_exact is not originals[1]
        assert toric.smith_normal_form is exactmath.smith_normal_form is not originals[2]
        assert exactmath.CycloInt.__rmul__ is exactmath.CycloInt.__mul__
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["group", "--fixture", "cyclic", "--n", "6"]) == 0
    assert patches.absent == []
    assert (exactmath.CycloInt.__mul__, groups.cyclo_div_exact, toric.smith_normal_form) == originals
    assert "__rmul__" in vars(exactmath.CycloInt)
    assert t.calls["cli.main"] == 1
    assert t.calls["exactmath.cyclo_div_exact"] > 0
    assert t.edges[("groups.close_group", "groups.element_mul")] > 0
    assert t.sizes["groups.close_group"] == 6


def test_missing_name_is_absent_not_a_crash(monkeypatch):
    monkeypatch.setattr(
        tracer, "TARGETS", tracer.TARGETS + (("toric.gone", "toric", "no_such_function"),)
    )
    with tracer.Patches(tracer.Tracer()) as patches:
        pass
    assert patches.absent == ["toric.no_such_function"]
    assert "toric.gone" in patches.absent_spans()
    metrics, absent = tracer.layer_metrics(
        tracer.Tracer(), {}, 1.0, 1.0, absent_spans={"toric.verify_crepant"}
    )
    assert "toric.verify_crepant.self_s" in absent
    assert "toric.rotation.candidates" in absent
    assert metrics["toric.verify_crepant.self_s"] == (0, "s")


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, _ = tracer.layer_metrics(tracer.Tracer(), {}, 1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in metrics.values()]


def _z5_build_item():
    return next(i for i in workloads.toric_audit(3, "W") if i.label == "z5sq-cycle")


def _good_toric_report(item):
    return {"results": dict(item.expect), "checks": {"crepant": "pass", "adjusted": "pass"}}


def test_correct_report_passes():
    item = _z5_build_item()
    assert workloads.check(item, 0, _good_toric_report(item)) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["results"].update(lefschetz=r["results"]["lefschetz"] + 1),
        lambda r: r["results"].update(crepant=False),
        lambda r: r["checks"].update(adjusted="fail"),
    ],
    ids=["lefschetz-off-by-one", "crepant-false", "check-failed"],
)
def test_corrupted_report_is_a_failure(corrupt):
    item = _z5_build_item()
    report = _good_toric_report(item)
    corrupt(report)
    assert workloads.check(item, 0, report)


def test_nonzero_exit_is_a_failure():
    item = _z5_build_item()
    assert workloads.check(item, 1, _good_toric_report(item)) == ["exit code 1"]


def test_verify_checks_must_pass_and_parity_stays_open():
    items = {i.argv[-1]: i for i in workloads.verify_sweep(7)}
    assert workloads.check(items["ade"], 0, {"checks": {"ade": "pass"}}) == []
    assert workloads.check(items["ade"], 0, {"checks": {"ade": "fail"}})
    assert workloads.check(items["parity43"], 0, {"checks": {"parity43": "open-question"}}) == []
    assert workloads.check(items["parity43"], 0, {"checks": {"parity43": "pass"}})


def test_run_item_counts_a_corrupted_program_as_failed():
    item = _z5_build_item()

    class FakeCli:
        @staticmethod
        def main(argv):
            report = _good_toric_report(item)
            report["results"]["lefschetz"] += 1
            print(json.dumps(report))
            return 0

    _, problems = run.run_item(FakeCli, item)
    assert problems and "lefschetz" in problems[0]
    _, _, failures, _ = run.run_pass(FakeCli, [item])
    assert list(failures) == [item.label]


def test_nominal_time_does_not_follow_the_host_speed():
    ref = run.REFERENCE_NOMINAL_S
    # One second of work, measured at full, half and a third of the speed.
    assert run.nominal([1.0, 2.0, 3.0], [ref, 2 * ref, 3 * ref]) == pytest.approx(1.0)
    assert run.nominal([1.0, 1.0, 9.0], [ref, ref, ref]) == pytest.approx(1.0)


def test_verify_sweep_splits_toric3d_over_distinct_pool_seeds():
    toric3d = [i for i in workloads.verify_sweep(3) if "toric3d-random" in i.argv]
    seeds = {int(i.argv[i.argv.index("--seed") + 1]) for i in toric3d}
    assert len(toric3d) == len(seeds) == workloads.TORIC3D_ITEMS
    assert seeds <= set(workloads.TORIC3D_SEED_POOL)
    assert all(i.argv[-2:] == ["--count", str(workloads.TORIC3D_COUNT)] for i in toric3d)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    a = workloads.make_items(workload, 5, "W")
    b = workloads.make_items(workload, 5, "W")
    assert [(i.label, i.argv, i.expect) for i in a] == [(i.label, i.argv, i.expect) for i in b]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_the_inputs(workload):
    argvs = {tuple(map(tuple, (i.argv for i in workloads.make_items(workload, s, "W"))))
             for s in range(6)}
    assert len(argvs) > 1


@pytest.mark.parametrize("workload", ("group-census", "toric-audit"))
def test_seeds_keep_the_group_orders(workload):
    def orders(seed):
        return [i.expect.get("order", i.expect.get("simplices", i.expect.get("group_order")))
                for i in workloads.make_items(workload, seed, "W")]

    assert all(orders(s) == orders(0) for s in range(1, 20))


def test_independent_answers():
    for m in workloads.ZM2_CONDUCTORS:
        gens = [(1, m - 1, 0), (0, 1, m - 1)]
        group = workloads.span_mod(gens, m)
        assert len(group) == m * m
        assert workloads.fixed_count(group, workloads.CYCLE3) == math.gcd(3, m)
    line = workloads.span_mod([(1, 1, 8)], 10)
    assert len(line) == workloads.fixed_count(line, workloads.SWAP12) == 10


def test_generated_instances_are_special_linear_and_invariant():
    for seed in range(20):
        for item in workloads.toric_audit(seed, "W"):
            if "--gen" not in item.argv:
                continue
            gens = [item.argv[k + 1] for k, a in enumerate(item.argv) if a == "--gen"]
            m = int(gens[0].rsplit("@", 1)[1])
            vecs = [tuple(int(x) for x in g.rsplit("@", 1)[0].split(",")) for g in gens]
            assert all(sum(v) % m == 0 for v in vecs)
            perm = {"(1 2 3)": workloads.CYCLE3, "(1 2)": workloads.SWAP12}[
                item.argv[item.argv.index("--perm") + 1]
            ]
            group = workloads.span_mod(vecs, m)
            assert {workloads.permute(v, perm) for v in group} == group


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", ".work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "group-census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
