"""Golden digests of certificates, bit for bit.

Each preset digest is the sha256 of its ``certificate_report`` text, or of
``ConfigError: <message>`` for a preset the chain refuses.  Each ring digest is
the sha256 of a sufficient-parameter chain's ``to_text()`` followed by the
bytes of its system's ``M`` and ``epsilon``.  The values were recorded while
the plain and error-feedback systems still had separate constants records, so
a change to any certificate constant, matrix entry or printed digit shows up
here, where the other certificate tests compare with tolerances.
"""

import hashlib
from functools import lru_cache

import pytest

from cgtsim import analysis
from cgtsim.compression import TopK, analytic_profile
from cgtsim.harness import (
    PRESETS,
    ConfigError,
    ProblemSpec,
    TopologySpec,
    certificate_report,
    make_problem,
    make_topology,
)
from cgtsim.problems import constants
from cgtsim.topology import spectral_info

PRESET_GOLDEN = {
    "fig1-cgt":
        "285395f47b7c91036f41595101084d1b93b32b9de1e69714f6d6ac7a6df79ecd",
    "fig2-cgt-directed":
        "fa2ccc094bb3fa93a44f9990011a175be0f5f527f68576c3ce39da4764733d62",
    "fig3a-cgt":
        "8da93f8816e39c6575e64463f22a47e19c090ea90f9e809e2321ef779a8ed6d5",
    "fig3a-efcgt":
        "ecc15347fac29f86ba7f50433d66890920fac4f4a73c0fd6c05d662bd9f9c6b9",
    "fig3b-cgt":
        "ddf6dcbfca04ef09aa0dd82f69007856ad9baa73a7b042b3421e38ffa4d48d87",
    "fig3b-efcgt":
        "14670d18d5aac767ab7bc10badea34d9e106251e3a540f58611f7a41a52be1b8",
    "fig4a-cgt":
        "5c72c73aa15e5b1357a94f46310a2cdb4ce2235835863c197bc8bbdb0cad2c46",
    "fig4a-efcgt":
        "45ceaec1ef2ef9301aebf5dcaf01508e96b01df594b8130415400347082d6fdf",
    "fig4b-cgt":
        "f2c6f039a4a8390b36d2faba6e0c282362d9e392bf0bb1d6d4dc0f2637378ea8",
    "fig4b-efcgt":
        "07b954065b4f0a215d35bf97e7a2ba039dec37996290bf1ef526dcf3ac0702f2",
    "fig5-cgt-normsign":
        "c8f76593e1cf6569f28bb0bd8dbc936157d626e3bd54351368a6dac4b4a8a824",
    "fig5-cgt-rescaled":
        "573c8db595c2077a135e7cf13b73336ff3c8ebe369de1103735c6dcc2c5b6e4c",
    "fig5-efcgt-normsign":
        "9e50edd4a0791547395836bc4257c0cd895e7df7aaf5b938761671e9de29d1d9",
    "fig5-efcgt-rescaled":
        "016c231f5adcd8dea674cffef179061656944260d5e7844437a91b237842f01a",
}

RING_GOLDEN = {
    "ef/directed/seed1":
        "d6142064e6a4c5e50093f0982d66466fd2a17eb0e1c841e42f2f613b328cc6dd",
    "ef/directed/seed405":
        "d2e985c33dd9f9a719241aa0835c8b12768e8f40b1ebb7a63236b153193ad08e",
    "ef/undirected/seed1":
        "097bc2a0b883c33315d4065efd9bbf62f8a3ce782cffd4b5ef4311db0aaeb5d2",
    "ef/undirected/seed405":
        "d2e506367f92615616571bd4be71ab096546f9f815534e13d56b87322eba525d",
    "plain/directed/seed1":
        "8beca77ec75cc2618e413342663225549f5ac61e9739b1b994395a4d82dc7061",
    "plain/directed/seed405":
        "b44263c0c1f94f96568bc402b4358073b18b0daa3209dc5ff2fd3f420bc32748",
    "plain/undirected/seed1":
        "5bda5e6e3c693fc09c8a2d3e3e18f8baeb070dcd05ece0ab29f1b22a54567921",
    "plain/undirected/seed405":
        "fc7842c874ac6f9ebdb1a0d4c704210855f323274a568bdef1f8ffe18e435656",
}

CHAINS = {"plain": analysis.sufficient_params, "ef": analysis.sufficient_params_ef}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_report_digest(name):
    try:
        text = certificate_report(PRESETS[name])
    except ConfigError as exc:
        text = f"ConfigError: {exc}"
    assert _sha(text.encode()) == PRESET_GOLDEN[name]


@lru_cache(maxsize=None)
def _spec(direction: str):
    return spectral_info(make_topology(TopologySpec(n=100, directed=direction == "directed")))


@pytest.mark.parametrize("case", sorted(RING_GOLDEN))
def test_ring_certificate_digest(case):
    chain, direction, seed = case.split("/")
    pb = make_problem(ProblemSpec(n=100, dim=20, seed=int(seed.removeprefix("seed"))))
    sp = CHAINS[chain](constants(pb), _spec(direction), analytic_profile(TopK(k=1), pb.dim),
                       1.0, 1.0, n=pb.n)
    blob = sp.to_text().encode() + sp.certificate.M.tobytes() + sp.certificate.epsilon.tobytes()
    assert _sha(blob) == RING_GOLDEN[case]
