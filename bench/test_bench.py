"""Tests of the benchmark itself: oracle, tracer, seeding and metric lists.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import cgtsim as cg  # noqa: E402
from cgtsim import algorithms, harness, topology  # noqa: E402

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, TracerError  # noqa: E402


# -- oracle ----------------------------------------------------------------

@pytest.mark.parametrize("n", [10, 100])
@pytest.mark.parametrize("directed", [True, False])
def test_ring_spectrum_matches_svd(n, directed):
    W = topology.build_weights_outdegree(topology.build_ring(n, directed=directed), 0.1).matrix
    rho, niw = oracle.ring_spectrum(n, 0.1, directed)
    svd_rho = np.linalg.svd(W - 1.0 / n, compute_uv=False)[0]
    svd_niw = np.linalg.svd(np.eye(n) - W, compute_uv=False)[0]
    assert abs(rho - svd_rho) <= oracle.norm_tolerance(n)
    assert abs(niw - svd_niw) <= oracle.norm_tolerance(n)


def test_quant_witness_matches_the_library_operator():
    p, bits = 20, 2
    c = oracle.quant_variance_witness(p, bits)
    assert c == pytest.approx(0.699, abs=5e-4)
    # the maximizing input, quantized 20000 times with independent keyed draws
    a = (p - 1) / 4.0
    f = (np.sqrt(1.0 + a) - 1.0) / a
    x = np.full(p, f / 2.0)
    x[0] = 1.0
    draws = 20_000
    q = cg.compress_rows(cg.UnbiasedQuantize(bits=bits, q=np.inf), np.tile(x, (draws, 1)),
                         seed=2024, iteration=0, tag=1)
    ratios = ((q - x) ** 2).sum(axis=1) / (x @ x)
    se = ratios.std(ddof=1) / np.sqrt(draws)
    assert abs(ratios.mean() - c) <= 4 * se


def test_ring_audit_flags_the_power_iteration_and_passes_the_exact_spectrum():
    spec_t = harness.TopologySpec(n=100, directed=True)
    W = harness.make_topology(spec_t)
    rho, niw = oracle.ring_spectrum(100, 0.1, True)
    exact = topology.SpectralInfo(rho_w=rho, s=1.0 - rho, norm_IminusW=niw)
    assert workloads._ring_audit(spec_t, (exact, None, None))[:2] == (2, 0)
    built, optimistic, relerr = workloads._ring_audit(spec_t, (topology.spectral_info(W), None, None))
    assert (built, optimistic) == (2, 2) and relerr > 0


def test_quant_c_below_the_witness_is_optimistic():
    assert oracle.quant_c_optimistic(0.45, 20, 2)
    assert not oracle.quant_c_optimistic(0.70, 20, 2)


# -- tracer ----------------------------------------------------------------

def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _fake_module() -> types.ModuleType:
    mod = types.ModuleType("fake")

    def leaf():
        _busy(0.002)

    def middle():
        _busy(0.001)
        mod.leaf()
        mod.leaf()

    def top():
        mod.middle()
        _busy(0.001)
        mod.leaf()

    mod.leaf, mod.middle, mod.top = leaf, middle, top
    return mod


def test_span_self_times_sum_to_the_parent_span():
    mod = _fake_module()
    tr = Tracer()
    for name in ("leaf", "middle", "top"):
        tr.patch(mod, name, f"fake.{name}")
    mod.top()
    tr.restore()
    assert tr.names == ["fake.top", "fake.middle", "fake.leaf", "fake.leaf", "fake.leaf"]
    assert tr.parents == [-1, 0, 1, 1, 0]
    selfs = tr.self_times()
    assert all(s >= 0 for s in selfs)
    root = tr.ends[0] - tr.starts[0]
    assert sum(selfs) == pytest.approx(root, abs=1e-9)
    middle = tr.ends[1] - tr.starts[1]
    assert selfs[1] + selfs[2] + selfs[3] == pytest.approx(middle, abs=1e-9)
    calls, total, self_s = tr.by_name()["fake.leaf"]
    assert calls == 3 and self_s == pytest.approx(total)
    assert mod.leaf.__name__ == "leaf"  # restored


def test_a_missing_target_fails_loudly_and_undoes_the_patches(monkeypatch):
    with pytest.raises(TracerError):
        Tracer().patch(_fake_module(), "gone", "fake.gone")
    original = algorithms.metrics
    monkeypatch.delattr(harness, "verify_suite")
    tr = Tracer()
    with pytest.raises(TracerError, match="verify_suite"):
        layers.install(tr)
    assert algorithms.metrics is original


def test_install_and_restore_round_trip():
    before = [getattr(mod, attr) for mod, attr, _, _ in layers.targets()]
    tr = Tracer()
    layers.install(tr)
    assert all(getattr(mod, attr) is not orig
               for (mod, attr, _, _), orig in zip(layers.targets(), before))
    tr.restore()
    assert [getattr(mod, attr) for mod, attr, _, _ in layers.targets()] == before


# -- speed probe -----------------------------------------------------------

@pytest.mark.parametrize("kernels", [("dispatch",), ("gemm",), ("matvec", "dispatch")])
def test_the_probe_takes_its_share_of_time(kernels):
    sp = speed.Speed(kernels)
    t0 = time.perf_counter()
    f = sp.probe(0.05)
    assert time.perf_counter() - t0 >= speed.PROBE_SHARE * 0.05
    assert f > 0
    assert sp.probe(0.0) > 0  # always at least one round of kernels


# -- seeding ---------------------------------------------------------------

def test_the_seed_moves_sweep_inputs_and_keys_but_not_the_preset_problem():
    a, b = workloads.presets_build(1), workloads.presets_build(2)
    for (ra, pa, _, _), (rb, pb, _, _) in zip(a, b):
        assert ra.cfg == rb.cfg
        assert np.array_equal(pa.U, pb.U) and np.array_equal(pa.v, pb.v)
        assert (ra.seed, rb.seed) == (1, 2)  # keys the compression streams

    sa, sb = workloads.sweep_runs(1), workloads.sweep_runs(2)
    assert [r.cfg for r in sa] == [r.cfg for r in sb]
    assert {r.seed for r in sa}.isdisjoint({r.seed for r in sb})
    pb = harness.make_problem(sa[0].cfg.problem)
    assert not np.array_equal(algorithms.default_x0(pb, sa[0].seed, "uniform"),
                              algorithms.default_x0(pb, sb[0].seed, "uniform"))
    assert workloads.sweep_runs(1) == sa

    ra, rb = workloads.ring_runs(1), workloads.ring_runs(2)
    assert [r.cfg.problem.seed for r in ra] == [1, 1, 1]
    assert [r.cfg.problem.seed for r in rb] == [2, 2, 2]


def test_sweep_anchors_reproduce_run_experiment():
    tally = run.Tally(json.loads((BENCH / "reference.json").read_text()))
    for op in workloads.engine_anchors(workloads.sweep_anchor_runs()):
        tally.run(op)
    assert tally.failures == []
    assert tally.identical == len(workloads.sweep_rows())


def test_the_tally_counts_raises_wrong_outputs_and_digest_mismatches():
    def boom():
        raise RuntimeError("boom")

    tally = run.Tally({"k": run.digest("right")})
    ops = [
        workloads.Op("raises", boom, lambda out: []),
        workloads.Op("wrong", lambda: 1, lambda out: ["bad value"]),
        workloads.Op("differs", lambda: "wrong", lambda out: [], ref_key="k", text=str),
        workloads.Op("matches", lambda: "right", lambda out: [], ref_key="k", text=str),
        workloads.Op("unchecked", lambda: None, lambda out: out.missing),
    ]
    for op in ops:
        tally.run(op)
    assert (tally.attempted, tally.failed, tally.identical) == (5, 4, 1)
    assert [line.split(":")[0] for line in tally.failures] == ["raises", "wrong", "differs", "unchecked"]


# -- the declared metrics --------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
