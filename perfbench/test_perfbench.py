"""The benchmark's own test: ``python3 -m pytest perfbench -q``.

The slow test runs the attribution pass over all three workloads (a few
minutes) and fails when a per-layer metric is vacuous.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from perfbench import catalog  # noqa: E402
from perfbench.reference import NOMINAL_S, Calibration  # noqa: E402
from perfbench.spans import SpanRecorder, patched  # noqa: E402
from perfbench.workloads import WORKLOADS, derive_inputs  # noqa: E402

RUN = ROOT / "perfbench" / "run.py"


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_catalog():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert e2e == catalog.END_TO_END
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == catalog.PER_LAYER


def test_inputs_derive_from_the_seed():
    for w in WORKLOADS:
        assert derive_inputs(w, 7) == derive_inputs(w, 7)
        assert derive_inputs(w, 7) != derive_inputs(w, 8)


def test_self_times_add_up_to_the_root():
    rec = SpanRecorder()
    with rec.span("step", root=True):
        with rec.span("a"):
            with rec.span("b"):
                pass
        with rec.span("c"):
            pass
    total, covered = rec.root_balance()
    assert covered == pytest.approx(total, rel=1e-12)
    assert {sp.root for sp in rec.spans} == {1}
    assert rec.by_name()["b"][0] == 1


def test_patched_restores_what_it_wrapped():
    class Owner:
        def method(self):
            return 1

    module = types.ModuleType("m")
    module.fn = lambda: 2
    original_method, original_fn = Owner.__dict__["method"], module.fn
    rec = SpanRecorder()
    with patched(rec, [(Owner, "method", "m", True), (module, "fn", "f",
                                                      False)]):
        assert Owner().method() == 1 and module.fn() == 2
    assert Owner.__dict__["method"] is original_method
    assert module.fn is original_fn
    assert [sp.name for sp in rec.spans] == ["m", "f"]


def test_calibration_scales_by_the_mean_slice():
    cal = Calibration()
    with pytest.raises(ValueError):
        cal.scale  # noqa: B018 - no slice yet
    cal.slices = [NOMINAL_S, 3 * NOMINAL_S]
    assert cal.scale == pytest.approx(2.0)
    cal.tick()
    assert len(cal.slices) == 3 and cal.slices[-1] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "droplet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_all_workloads_attribution_has_no_vacuous_metric():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed",
         str(catalog.DEVELOPMENT_SEED), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["restart.core.ue_repaired"]["value"] > 0
    for metric, workload in catalog.MUST_STAY_ZERO:
        assert result["metrics"][f"{workload}.{metric}"]["value"] == 0
