"""Golden digests of engine trajectories, bit for bit.

Each digest is the sha256 of the run's trace CSV followed by the bytes of its
final X and Y (and, for ``record_states``, of ``states``' two channels).  The
values were recorded before the engine moved to one channel-stacked state, so
any change to the order or the values of the floating-point updates shows up
here, where the other engine tests compare with tolerances or with the engine
itself.  ``MAXIMA`` pins the run's invariant maxima the same way, as float hex.
Fifteen of its cases were re-recorded when the checks moved from BLAS dots to
numpy's pairwise sums, the reduction the trace uses: no digest changed, and
each maximum that moved did so by one ulp (at most 2.1e-16 relative).

The ``gamma1``, ``alpha-column`` and ``overflow-partial`` cases were recorded
before the engine skipped its multiplications by an exact 1.0, and their
digests also cover the final H, H_w and E: they pin the gamma = 1 path that
most presets take, the per-channel alpha column, and the partial state of a run
whose first step overflows.

The ``shape`` cases leave the n = 10, p = 20, k = 1, b = 2 setting of the
others: p = 1 and p = 2 (k = p), an undirected ring of n = 37, top-k and
rand-k at k > 1, the quantizer at b = 1 and at q = 1 and 2, and the rescaled
norm-sign at r != p, all at alpha = beta = 1/2.  Their digests cover the
final H, H_w and E as well.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from cgtsim.algorithms import (
    DivergenceError,
    HyperParams,
    run_cgt_efficient,
    run_cgt_reference,
    run_efcgt_efficient,
    run_efcgt_reference,
    run_gt,
)
from cgtsim.compression import parse_compressor
from cgtsim.harness import trace_csv
from cgtsim.problems import generate_ridge
from cgtsim.topology import build_ring, build_weights_outdegree

N, DIM, K = 10, 20, 60
COMPRESSORS = ("identity", "quant:b=2,q=inf", "topk:k=1", "randk:k=1",
               "normsign-rescaled:q=inf,r=20")
RUNNERS = {
    "gt": lambda pb, W, hp, kind, **kw: run_gt(pb, W, hp, K, 3, **kw),
    "cgt-ref": lambda pb, W, hp, kind, **kw: run_cgt_reference(pb, W, hp, kind, K, 3, **kw),
    "cgt": lambda pb, W, hp, kind, **kw: run_cgt_efficient(pb, W, hp, kind, K, 3, **kw),
    "efcgt-ref": lambda pb, W, hp, kind, **kw: run_efcgt_reference(pb, W, hp, kind, K, 3, **kw),
    "efcgt": lambda pb, W, hp, kind, **kw: run_efcgt_efficient(pb, W, hp, kind, K, 3, **kw),
}

GOLDEN = {
    "runner/gt/identity":
        "3b51d51ef759e339628c027537410801b40f7ea2f8838a343b2e925ea9fd1ab3",
    "runner/cgt-ref/identity":
        "3b51d51ef759e339628c027537410801b40f7ea2f8838a343b2e925ea9fd1ab3",
    "runner/cgt-ref/quant:b=2,q=inf":
        "7418c047f034f417e11c0d07b4fed1db73bf6913e1b5e99f6aa2d03cd0f04614",
    "runner/cgt-ref/topk:k=1":
        "5b0f5e2275074c9970c9082f1f8c7a362d8ed2b6cc570d07fc7be0a117526762",
    "runner/cgt-ref/randk:k=1":
        "6923b0c0cef8d2f2190e5bdb1398647775b07b48695fc14d924437c7cfc0bbf9",
    "runner/cgt-ref/normsign-rescaled:q=inf,r=20":
        "e634cf966904dc5f92e1ec4f5d928097ff0c6c0db4582c5a89903125a6e5c385",
    "runner/cgt/identity":
        "04fba8350f68c95e7ff1579094df43b15ee5e6395fc22462b67e021b7fa1f076",
    "runner/cgt/quant:b=2,q=inf":
        "31975e33663fb916e3e1aefb0478a337336ac2a888c873995417d3f291d6a481",
    "runner/cgt/topk:k=1":
        "4e15e44c60e0c065f2a6df45a62b65753aaa37d02c89f8d0c7670db3201dd447",
    "runner/cgt/randk:k=1":
        "603f8f8c4f44cfcf97baf547b5f3f9bac5069ad6295cc1eecb83e050d6c2564a",
    "runner/cgt/normsign-rescaled:q=inf,r=20":
        "eb5a394e0f61723eab9f3f6ddd6770a585631328e78989d6b7dd30c4c7e56126",
    "runner/efcgt-ref/identity":
        "cf2c25653d738163523750e473b128680ee6cc0f3f4df7cd60c69ee5aa3f7030",
    "runner/efcgt-ref/quant:b=2,q=inf":
        "b0b2617e2192064caa434b70c5bfd59bb7197e710b4322e190d8c25dd6b4ece4",
    "runner/efcgt-ref/topk:k=1":
        "58513d2d2e4c68dd8691c760ce52e5d67b055316d412712d357ec7c95aac352f",
    "runner/efcgt-ref/randk:k=1":
        "c6f178da54fedf7404e008b91a6bdab8658896072bc339d33e0690e205810bcd",
    "runner/efcgt-ref/normsign-rescaled:q=inf,r=20":
        "2948ed8157dfad3c196915ddd963868ceed71bc12359da8d7d6a10b450daa9d5",
    "runner/efcgt/identity":
        "54dc6ce5e52aece1d3ee3d319686497872aa4b39122e841ca610363d75b5c217",
    "runner/efcgt/quant:b=2,q=inf":
        "e7c940df4be2ef2c9956855efaf7f0682535f5d0ffc9ac63cbdc1ed363bc4b48",
    "runner/efcgt/topk:k=1":
        "eba3c2ad07d7c1a5b70164b3f085ebab17d9a93c0aa980d3146e8606f3c010da",
    "runner/efcgt/randk:k=1":
        "c0e7672be09a67417fc842e739ccf6babdd070fb61cb2b7152aa4c44858fce0c",
    "runner/efcgt/normsign-rescaled:q=inf,r=20":
        "4084db3154fd0282b0df969aa711fa06a6800b564e5640dfd952bb1d0004cd3a",
    "init-uniform":
        "9147598255680f185245bb271deb0b0f6b0899b3969410be4ae71356268b5aca",
    "alpha":
        "7e237b06a0eff9063505ef7091bfa253e8148250c7b06bf5d2f2b52d98fe61fd",
    "beta":
        "8669bd98e140a5a083e86965d2048b8d12dd8224946c694b910a70f6c75930e1",
    "record-states":
        "adb59de6ae1819de2cb5678d62eb8a1e137b5e71853cf2b27a6e2060a2112442",
    "divergence-partial":
        "59228821fb524c4c81690aced211e206de1770978acfb2de65470b3db00cc328",
    "gamma1/cgt/quant:b=2,q=inf":
        "8d4279834e0c45a7ca9b75c535d743b2d68b4bb90e27aa034517b14d214ba489",
    "gamma1/cgt/topk:k=1":
        "635cba534bc40b1b101651baae3be440590547cf23cc6abf521636e39497e652",
    "gamma1/efcgt/quant:b=2,q=inf":
        "c2ceaf2a0ffc61fc62592159c39b85ba3e287ea5e789e7e5a3c203593eb0066d",
    "gamma1/efcgt/topk:k=1":
        "71397b84fa47a42fe04221f26b2d3b4d4c34628f9d1819cb21361cdcb0ff796b",
    "alpha-column/cgt/quant:b=2,q=inf":
        "df74d852d5360731b9efd30d6dd456ac487b14453c67ec09bc30926f8dff05ee",
    "alpha-column/efcgt/topk:k=1":
        "b9de4c486b34592f3e4f2e702cb9f55bd03db569aa21780dc4291e2dae8ae60f",
    "overflow-partial/cgt/quant:b=2,q=inf":
        "7690fefa30751eb4fb783d63acd033ee98dee4025d5be6d8513a9cb8b48014e1",
    "overflow-partial/efcgt/topk:k=1":
        "803db44c3e8ec469dcb0e4f3f0aed578009dc871f8fd5cb8530ac1c062487b00",
    "shape/cgt/p1":
        "3bf516653dda4c880c0e60e36641a975657340e1437ce806c403709ee0195b65",
    "shape/cgt/p2":
        "d1a61c8f62721624d72647aebf0a777c6424c7ab1482177caf8c3c231b369289",
    "shape/cgt/n37-undirected":
        "1d0da8f589ab121dbbef102cac997d632c11255e3de91bada7b7d08e3d2cdb8d",
    "shape/cgt/topk3":
        "f39fe921a3d864439ca866cfa06b0a14b90076f72c715614376c0a5117489fe2",
    "shape/cgt/randk5":
        "373a89d195fcb2d2efee2c194f8b51afacfc361a50ca44f08515eccd178d8dcc",
    "shape/cgt/quant-b1-q2":
        "8ffa512df0c8c09f70f39c764c7d8e63e8d168563f2ff9e8f075978969507ffa",
    "shape/cgt/quant-b2-q1":
        "975d8d8bad4ede0d9e5b719de024a9f2895d99548282bb96ebeb262e77c73fa4",
    "shape/cgt/normsign-rescaled-q2-r3":
        "5a7bf8570983f181bfccd986a37929ad90508aadca36f5e8f253312e09f360ca",
    "shape/efcgt/p1":
        "9e5113eb6ec2ffc7aac523a72d55af82e5acd65bc11b3ce0d05938e0362fd9b2",
    "shape/efcgt/p2":
        "5647eab8d3a647f7cffe98bb86a8226315c7e8acd73eb7f6d0c37e742d7015c5",
    "shape/efcgt/n37-undirected":
        "38f39c3474776cc80aec6e40ec933f2774ccf65e49bc0e701a21a51ddf07b54c",
    "shape/efcgt/topk3":
        "e19664efc8c93b02b23b01997ac6624069bed1e1b10b92036a5db6b4b38886f6",
    "shape/efcgt/randk5":
        "2b9c2c9d0c74c67e9f1332776be087896781ec57efa43d11e96c1fdc9a386f40",
    "shape/efcgt/quant-b1-q2":
        "04b09864c7c2af3a7e3f32aca519c5044e41debdff67b5ef572f36a23ca13bb5",
    "shape/efcgt/quant-b2-q1":
        "db426c99374926ba7e6d743d22fb02bfc4cdcf43b1b6be41fe33f93b5ce3bcc9",
    "shape/efcgt/normsign-rescaled-q2-r3":
        "4c5d29aa756d70cd35a526cfa3087d4b4ac267997e63117fe4f25f9aa948ef6d",
    "shape/cgt-ref/topk3":
        "e2acd28e637e89801bd97e8c0dba2f8b273d86dd15a3d3ae0698f61d6f408018",
}


# (max_tracking_violation.hex(), max_mean_drift.hex()) of each case: the invariant
# maxima the engine reports, which neither the trace nor the final state shows
MAXIMA = {
    "runner/gt/identity":
        ("0x1.34062b80beb84p-51", "0x1.379fc348d4f2ep-53"),
    "runner/cgt-ref/identity":
        ("0x1.34062b80beb84p-51", "0x1.379fc348d4f2ep-53"),
    "runner/cgt-ref/quant:b=2,q=inf":
        ("0x1.3d8187cb144edp-51", "0x1.67b6d34a043bdp-53"),
    "runner/cgt-ref/topk:k=1":
        ("0x1.545c09eefd403p-51", "0x1.4bb621d61387ap-53"),
    "runner/cgt-ref/randk:k=1":
        ("0x1.5eb50db4a5b84p-51", "0x1.41dad5986e81ap-53"),
    "runner/cgt-ref/normsign-rescaled:q=inf,r=20":
        ("0x1.3f388586d623dp-51", "0x1.772c5726bc94ap-53"),
    "runner/cgt/identity":
        ("0x1.56989b22096d7p-49", "0x1.23849c3df5316p-53"),
    "runner/cgt/quant:b=2,q=inf":
        ("0x1.29c6761148f8cp-49", "0x1.4297d8eec44e9p-53"),
    "runner/cgt/topk:k=1":
        ("0x1.187094f4dfa86p-50", "0x1.19e6f3794c402p-53"),
    "runner/cgt/randk:k=1":
        ("0x1.0f033e1a0b905p-50", "0x1.a8b196bbafe62p-53"),
    "runner/cgt/normsign-rescaled:q=inf,r=20":
        ("0x1.028d3f4053f87p-49", "0x1.39babb5ba18e0p-53"),
    "runner/efcgt-ref/identity":
        ("0x1.34062b80beb84p-51", "0x1.379fc348d4f2ep-53"),
    "runner/efcgt-ref/quant:b=2,q=inf":
        ("0x1.42106b7632be8p-51", "0x1.0fa59cdf57663p-53"),
    "runner/efcgt-ref/topk:k=1":
        ("0x1.3589eec08d12dp-51", "0x1.2f5ea1a134009p-53"),
    "runner/efcgt-ref/randk:k=1":
        ("0x1.5d08cab529f26p-51", "0x1.1cb48875e8745p-53"),
    "runner/efcgt-ref/normsign-rescaled:q=inf,r=20":
        ("0x1.a367f52591bccp-52", "0x1.178f9d5c90c9dp-53"),
    "runner/efcgt/identity":
        ("0x1.56989b22096d7p-49", "0x1.23849c3df5316p-53"),
    "runner/efcgt/quant:b=2,q=inf":
        ("0x1.7a3974e5aea46p-49", "0x1.2f5ac76a40ba3p-53"),
    "runner/efcgt/topk:k=1":
        ("0x1.8a4fb107b6a16p-50", "0x1.827444c42cc01p-53"),
    "runner/efcgt/randk:k=1":
        ("0x1.1c1876bc793afp-50", "0x1.509ad44802856p-53"),
    "runner/efcgt/normsign-rescaled:q=inf,r=20":
        ("0x1.0b5f12ae59b53p-50", "0x1.4f213cefc58fcp-53"),
    "init-uniform":
        ("0x1.fb1b0ff0f5c40p-49", "0x1.3ccf676371179p-53"),
    "alpha":
        ("0x1.639687491c621p-49", "0x1.9e5e6d623e5c9p-53"),
    "beta":
        ("0x1.17dead592d3d1p-49", "0x1.2c8938f200ecap-53"),
    "record-states":
        ("0x1.3d8187cb144edp-51", "0x1.67b6d34a043bdp-53"),
    "divergence-partial":
        ("0x1.01c5fcb775b5dp-54", "0x1.092c14f026dc7p-46"),
    "gamma1/cgt/quant:b=2,q=inf":
        ("0x1.5263bcbe5da9bp-48", "0x1.5df9e91e5b117p-53"),
    "gamma1/cgt/topk:k=1":
        ("0x1.fe0b602abc7b3p-50", "0x1.36699d49a4d69p-53"),
    "gamma1/efcgt/quant:b=2,q=inf":
        ("0x1.93ca411be3eedp-48", "0x1.6b9a78a8a0857p-53"),
    "gamma1/efcgt/topk:k=1":
        ("0x1.12c4c8f3c2531p-49", "0x1.35618c44ac1cap-53"),
    "alpha-column/cgt/quant:b=2,q=inf":
        ("0x1.f3d1381924dcap-49", "0x1.63dc7b0a16f54p-53"),
    "alpha-column/efcgt/topk:k=1":
        ("0x1.8b1587611cdcap-51", "0x1.3ea9294ef86f4p-53"),
    # the first step overflows, so each identity compares inf with inf
    "overflow-partial/cgt/quant:b=2,q=inf":
        ("nan", "nan"),
    "overflow-partial/efcgt/topk:k=1":
        ("nan", "nan"),
    "shape/cgt/p1":
        ("0x1.f2dd1b462e0f1p-48", "0x1.67001e109407ep-54"),
    "shape/cgt/p2":
        ("0x1.bf311b7fc2474p-48", "0x1.9ae366e2be9a1p-54"),
    "shape/cgt/n37-undirected":
        ("0x1.88859811ed1e9p-49", "0x1.40ab72f867d2dp-53"),
    "shape/cgt/topk3":
        ("0x1.6f750c687ff47p-50", "0x1.840b6d0eaf9aap-53"),
    "shape/cgt/randk5":
        ("0x1.ee33b0b500addp-50", "0x1.292eb118ae384p-53"),
    "shape/cgt/quant-b1-q2":
        ("0x1.d014214bf3386p-47", "0x1.7d31afd5bc52cp-53"),
    "shape/cgt/quant-b2-q1":
        ("0x1.54c7229ab6bc3p-46", "0x1.5aac60c8cbab9p-46"),
    "shape/cgt/normsign-rescaled-q2-r3":
        ("0x1.00c537b8c7d67p-48", "0x1.6c2f79526dac9p-53"),
    "shape/efcgt/p1":
        ("0x1.8140707c5bba6p-50", "0x1.85d201a0db8c0p-54"),
    "shape/efcgt/p2":
        ("0x1.2344fc34fb522p-50", "0x1.306d41496c75ap-53"),
    "shape/efcgt/n37-undirected":
        ("0x1.174f3d21f69ddp-49", "0x1.0b8c204220974p-53"),
    "shape/efcgt/topk3":
        ("0x1.8c72b0c6e5b2ep-51", "0x1.2030f8bb0d466p-53"),
    "shape/efcgt/randk5":
        ("0x1.51cab4c8188b6p-50", "0x1.347091b7787efp-53"),
    "shape/efcgt/quant-b1-q2":
        ("0x1.aceab4ff1410ep-49", "0x1.5e891658e3535p-53"),
    "shape/efcgt/quant-b2-q1":
        ("0x1.1156651379595p-46", "0x1.3d9119d504f5ep-46"),
    "shape/efcgt/normsign-rescaled-q2-r3":
        ("0x1.3d5a729f52613p-49", "0x1.26c6b6f398799p-53"),
    "shape/cgt-ref/topk3":
        ("0x1.9d64a00035af4p-52", "0x1.095ae61e0bc4cp-53"),
}

@pytest.fixture(scope="module")
def pb():
    return generate_ridge(N, DIM, 0.01, 5.0, seed=405)


@pytest.fixture(scope="module")
def W():
    return build_weights_outdegree(build_ring(N, directed=True), 0.1)


# shape case name -> (n, p, directed ring, compressor)
SHAPES = {
    "p1": (N, 1, True, "quant:b=2,q=2"),
    "p2": (N, 2, True, "topk:k=2"),
    "n37-undirected": (37, DIM, False, "quant:b=2,q=inf"),
    "topk3": (N, DIM, True, "topk:k=3"),
    "randk5": (N, DIM, True, "randk:k=5"),
    "quant-b1-q2": (N, DIM, True, "quant:b=1,q=2"),
    "quant-b2-q1": (N, DIM, True, "quant:b=2,q=1"),
    "normsign-rescaled-q2-r3": (N, DIM, True, "normsign-rescaled:q=2,r=3"),
}


@lru_cache(maxsize=None)
def _problem(n, p):
    return generate_ridge(n, p, 0.01, 5.0, seed=405)


@lru_cache(maxsize=None)
def _weights(n, directed):
    return build_weights_outdegree(build_ring(n, directed=directed), 0.1)


def _digest(res, *extra: np.ndarray) -> str:
    h = hashlib.sha256(trace_csv(res.trace).encode())
    for arr in (res.final.X, res.final.Y) + extra:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _final(res) -> tuple:
    return tuple(a for a in (res.final.H, res.final.H_w, res.final.E) if a is not None)


def _case(name, pb, W):
    """Run the named golden case: its result and the extra arrays its digest covers."""
    hp = HyperParams(eta=0.004, gamma=0.5)
    if name.startswith("runner/"):
        _, algo, comp = name.split("/")
        return RUNNERS[algo](pb, W, hp, parse_compressor(comp), trace_every=1), ()
    if name.startswith(("gamma1/", "alpha-column/")):
        case, algo, comp = name.split("/")
        hp = (HyperParams(eta=0.004, gamma=1.0) if case == "gamma1"
              else HyperParams(eta=0.004, gamma=0.5, alpha_x=1.0, alpha_y=0.5))
        res = RUNNERS[algo](pb, W, hp, parse_compressor(comp), trace_every=1)
        return res, _final(res)
    if name.startswith("overflow-partial/"):
        # the first step overflows X; the guard cuts the run after it
        _, algo, comp = name.split("/")
        hp = HyperParams(eta=1e308, gamma=1.0)
        with pytest.raises(DivergenceError) as exc:
            RUNNERS[algo](pb, W, hp, parse_compressor(comp), trace_every=1, record_states=True)
        res = exc.value.partial
        return res, (res.states[:, 0], res.states[:, 1]) + _final(res)
    quant = parse_compressor("quant:b=2,q=inf")
    if name == "init-uniform":
        return run_cgt_efficient(pb, W, hp, quant, K, 3, trace_every=1, init="uniform"), ()
    if name == "alpha":
        hp = HyperParams(eta=0.004, gamma=0.5, alpha_x=0.05, alpha_y=0.05)
        kind = parse_compressor("normsign:q=inf")
        return run_cgt_efficient(pb, W, hp, kind, K, 3, trace_every=1), ()
    if name == "beta":
        hp = HyperParams(eta=0.004, gamma=0.5, alpha_x=0.05, alpha_y=0.05,
                         beta_x=0.01, beta_y=0.01)
        kind = parse_compressor("normsign:q=inf")
        return run_efcgt_efficient(pb, W, hp, kind, K, 3, trace_every=1), ()
    if name == "record-states":
        res = run_cgt_reference(pb, W, hp, quant, K, 3, trace_every=1, record_states=True)
        return res, (res.states[:, 0], res.states[:, 1])
    if name == "divergence-partial":
        hp = HyperParams(eta=5.0, gamma=0.5)
        with pytest.raises(DivergenceError) as exc:
            run_cgt_efficient(pb, W, hp, parse_compressor("topk:k=1"), 4000, 3,
                              trace_every=7, record_states=True)
        res = exc.value.partial
        return res, (res.states[:, 0], res.states[:, 1])
    if name.startswith("shape/"):
        _, algo, shape = name.split("/")
        n, p, directed, comp = SHAPES[shape]
        hp = HyperParams(eta=0.004, gamma=0.5, alpha_x=0.5, alpha_y=0.5, beta_x=0.5, beta_y=0.5)
        res = RUNNERS[algo](_problem(n, p), _weights(n, directed), hp, parse_compressor(comp),
                            trace_every=1)
        return res, _final(res)
    raise KeyError(name)


# run_gt ignores the compressor, so it has one case
CASES = (["runner/gt/identity"]
         + [f"runner/{algo}/{comp}" for algo in RUNNERS if algo != "gt" for comp in COMPRESSORS]
         + ["init-uniform", "alpha", "beta", "record-states", "divergence-partial"]
         + [f"gamma1/{algo}/{comp}" for algo in ("cgt", "efcgt")
            for comp in ("quant:b=2,q=inf", "topk:k=1")]
         + ["alpha-column/cgt/quant:b=2,q=inf", "alpha-column/efcgt/topk:k=1",
            "overflow-partial/cgt/quant:b=2,q=inf", "overflow-partial/efcgt/topk:k=1"]
         + [f"shape/{algo}/{shape}" for algo in ("cgt", "efcgt") for shape in SHAPES]
         + ["shape/cgt-ref/topk3"])


@pytest.mark.parametrize("name", CASES)
def test_engine_digest(name, pb, W):
    res, extra = _case(name, pb, W)
    assert _digest(res, *extra) == GOLDEN[name]


@pytest.mark.parametrize("name", CASES)
def test_engine_invariant_maxima(name, pb, W):
    res, _ = _case(name, pb, W)
    assert (res.max_tracking_violation.hex(), res.max_mean_drift.hex()) == MAXIMA[name]

