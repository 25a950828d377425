"""The engine's mixing product, ``algorithms._mix``, has the bytes of ``op @ Q``.

Above its bound ``_mix`` multiplies a (b, n, p) stack as one (n, b*p) dgemm,
where numpy would run one dgemm per channel.  The identity check runs over a
grid that straddles the bound (n*n*p = 994580 at n = 223, p = 20, and 1003520
at n = 224), in subprocesses at one and at two BLAS threads, because numpy
reads the thread variables when it loads.  If a numpy or OpenBLAS upgrade
moves the bound, it fails; the fix is to re-measure the bound, not to loosen
the check.  The engine check runs whole traced runs above the bound against the
per-channel product, ``op @ Q``, as the reference implementation.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cgtsim import algorithms
from cgtsim.algorithms import HyperParams
from cgtsim.compression import parse_compressor
from cgtsim.harness import trace_csv
from cgtsim.problems import generate_ridge
from cgtsim.topology import build_ring, build_weights_outdegree

_CHECK_MIX = """
import itertools, json
import numpy as np
from cgtsim.algorithms import _mix
from cgtsim.topology import build_ring, build_weights_outdegree

rng = np.random.default_rng(32)
cases, bad = 0, []
for n, directed in itertools.product((10, 16, 37, 223, 224, 300, 1000), (True, False)):
    W = build_weights_outdegree(build_ring(n, directed=directed), 0.1)
    for form, op in (("W", W.matrix), ("I-W", W.i_minus_w)):
        for p, b, q in itertools.product((1, 2, 20), (2, 4), ("dense", "sparse", "nonfinite")):
            Q = rng.standard_normal((b, n, p))
            if q == "sparse":  # one kept entry per row, as top-1 sends
                Q = np.where(np.arange(p) == rng.integers(0, p, (b, n, 1)), Q, 0.0)
            elif q == "nonfinite":
                Q.flat[rng.choice(Q.size, 3, replace=False)] = (np.inf, -np.inf, np.nan)
            with np.errstate(invalid="ignore"):
                got, want = _mix(op, Q), op @ Q
            cases += 1
            if not (got.tobytes() == want.tobytes() and got.shape == (b, n, p)
                    and got.flags.c_contiguous):
                bad.append(f"n={n} directed={directed} {form} p={p} b={b} {q}")
print(json.dumps({"cases": cases, "bad": bad}))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mix_has_the_bytes_of_the_per_channel_product(threads):
    src = str(Path(algorithms.__file__).parents[1])
    env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHECK_MIX], capture_output=True, text=True,
                          timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["cases"] == 7 * 2 * 2 * 3 * 2 * 3
    assert out["bad"] == []


# n*n*p = 1.8e6: every mixing product of these runs is above the bound
N, DIM, K = 300, 20, 4
RUNNERS = {
    "cgt": algorithms.run_cgt_efficient,
    "efcgt": algorithms.run_efcgt_efficient,
    "cgt-ref": algorithms.run_cgt_reference,
    "efcgt-ref": algorithms.run_efcgt_reference,
}


def _run(algo, comp):
    pb = generate_ridge(N, DIM, 0.01, 5.0, seed=405)
    W = build_weights_outdegree(build_ring(N, directed=True), 0.1)
    return RUNNERS[algo](pb, W, HyperParams(eta=3e-4, gamma=0.5), parse_compressor(comp), K, 3,
                         trace_every=1, record_states=True)


def _kept(res) -> list[np.ndarray]:
    f = res.final
    return [a for a in (f.Z, f.H, f.H_w, f.E, res.states_x, res.states_y) if a is not None]


def _digest(res) -> str:
    # tests/test_engine_golden.py's digest: the trace CSV, then the kept arrays' bytes
    h = hashlib.sha256(trace_csv(res.trace).encode())
    for a in _kept(res):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("comp", ["quant:b=2,q=inf", "topk:k=1"])
@pytest.mark.parametrize("algo", list(RUNNERS))
def test_runs_above_the_bound_match_the_per_channel_product(algo, comp, monkeypatch):
    assert N * N * DIM > algorithms._MIX_MERGE_SIZE
    res = _run(algo, comp)
    # the metrics' sums run in memory order, so every kept array must be C-ordered
    assert all(a.flags.c_contiguous for a in _kept(res))
    monkeypatch.setattr(algorithms, "_mix", lambda op, Q: op @ Q)
    assert _digest(res) == _digest(_run(algo, comp))
