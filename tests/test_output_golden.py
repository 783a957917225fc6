"""Every CLI byte and every assigned matrix on the digest grid, pinned per angle and group.

``tests/cli_digest.py`` prints one hash over its whole grid, for comparing
two checkouts by hand.  This test pins the same runs as one sha256 per
(θ, group), so a change names the group and the angle it moved:

* ``exact`` and ``audit``: every run as a table and as ``--json``;
* ``perspectives`` and ``perspectives --json``: every perspective run;
* ``purity``: the ``repr`` of each assigned-state purity on the sweep grid;
* ``matrix``: the raw bytes of each matrix the sweep grid assigns.

``RECORD_TABLE_SHA256`` pins the exact ``(r, z, wbar, w)`` record table per
angle and semantics, items and order: ``mc`` draws depend on both.

Like ``MC_GOLDEN_SHA256``, the pins assume the reference numpy.  A change
that moves bytes on purpose re-pins only the groups it meant to move.
"""

import hashlib
import os
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest

from ewfs.perspectives import AssignmentRule, Perspective, assign
from ewfs.protocol import ProtocolConfig, exact_record_distribution

from _oracles import SWEEP_GRID, default_registers
from cli_digest import THETAS, grid, run

GROUPS = ("exact", "audit", "perspectives", "perspectives --json", "purity", "matrix")

GOLDEN_SHA256 = {
    "0": {
        "exact": "e40927480c23aee7895a4d6ef423dfd0a45788a6051b73d4c2910790f39276c9",
        "audit": "dfc9c51756bfc0c4e99fe72d298e4fe7caf7165dd4466ada8cd7570d8177b7b3",
        "perspectives": "0b5ace7fe7349669026c0da73dcbb416ced070b825f648d47e744f47a2e8ba49",
        "perspectives --json": "29da0ee72706ac2736afaf948c61bd64cde4b239ed07c71b6d4e3ec5b6eb9ec3",
        "purity": "f7acbdf361ef76c36c9f5541d0f70b90dfbc5cd531de09de3f20add179d7c09a",
        "matrix": "d9adfca2dacbd0f038bc68506e5cc7cf0c379d7de734ba1180923dcca8e569da",
    },
    "0.7": {
        "exact": "cfd86073c09ba9ebc8c55d92bb7b610a239e4de1a0367fe3b6f8314d1d3e0ac0",
        "audit": "3862a01ed754feb554a72571f33ad9d10afb4b4cf74ac4a213ef37dc5ae45fe0",
        "perspectives": "d6dcc2c07235d5b3da0d69aa1c1c4bc913a9eafe323e3da46a4b71d31fba43bd",
        "perspectives --json": "494bfacd55d4ede5b0e4609995cbc5a18de6bd0d69647e26c77934dad1071689",
        "purity": "12d6f228fea37068db89619cc0a7903f2686038b91e86a92cc43812df3737e09",
        "matrix": "7cb5fc427c44dbf420936f8cb6aa62e8e3e902ded475806d7180f5aacf22ce40",
    },
    "1.57": {
        "exact": "dba46447614356b9bb4475fdd6367b24c4b4fad694bb43978de48e3878b938e5",
        "audit": "455bf63efa434a295baeef6e6b1b1f7ef823824cbcb387676ff4a8ae1c38038e",
        "perspectives": "910403d953ae0491487dc78f1aee12263172ff8a3d4edd6424f53c62ebe01900",
        "perspectives --json": "361e9a1bd6476ec3efbd2bf24060b5bfa822423806db06dbeb824ebd6c04915f",
        "purity": "db0725c40915c1f505f22a3fe5141841126a8255e3269ce7a77a55256db4f184",
        "matrix": "ba9b9c79c8d3b3222dad4f3d6053d29c4ab11eacd284debbae1dd582a9bb449a",
    },
    "3.141592653589793": {
        "exact": "5c9562744facf3dc1e96b02f8e2d129c9e4240a12fd1b00c650820eef7850d6c",
        "audit": "3dcfc4dbaa7159e18190741fe6252ac9b0b9383e76e7e7ac1fa50aa7dd989028",
        "perspectives": "95f23f79d167e25219292591a7abe08d2eda41b5a4340e10cd43ebf40c6ca3d0",
        "perspectives --json": "584b298ad08a8baf35382e7f5eb62aa7459bf2ac5199e7558eae188a0358f10f",
        "purity": "1888daf51144099daf8341a7319c3d939c1e2254e960bbf62aa432a127452ec8",
        "matrix": "c1f1fb9c120b8d89fd9d54f90ae55822abf9a54abdbd6bfdcf0e20dfceed9c14",
    },
    "2.2": {
        "exact": "69bd7d42356d4529d9d26dc0b6c505e6c9b609e0801dcb254f57e6c68f695e78",
        "audit": "744ce0bc88a9674241a04d628b51f674df9e872f8d31de38670dac3592afdbc3",
        "perspectives": "537b43a6fdae8779501b505fba2be23a59ad0778d650bfe1b0ad4562c6f48f1f",
        "perspectives --json": "32883345038879b1103ca3b3f186c1851685069490860eaaa4df859064c1cbd4",
        "purity": "c082bc488aa4e102e35abbbfc5309e1c5132633c719014f664147bddd7b7155a",
        "matrix": "28f89ac5b1cb9d08cd9963e1e90c6cb8160b5d64ece7cd3787b85a6e87608a8c",
    },
    "-1": {
        "exact": "6c06ab7089161d97edafd470bfeb8001755c456a6ffdd78e489de46319b06275",
        "audit": "8647dc2d44f08d2357d0a943f028fbf1161d37f2a62408519f924f1f3b0e7f38",
        "perspectives": "9b16d19e0db51530aff3176d3c411c6187927a1d5563341e5be67d4d65753ec9",
        "perspectives --json": "d20bc000573ead46518e969e3ce31d800e2369c8ad0a5beaaaef97a2f89cbbe9",
        "purity": "4d70c05f0774e6d9c2f425eb8f63337d66318c515cf5d9749675a99f495d17a0",
        "matrix": "32e0743be08577fa7766862198c404210edb52808ef505ad1665d09245987f44",
    },
    "6.283185307179586": {
        "exact": "91e1ed39f66f35fe25afd475fa0d33f8152bca0eabe538b6023e107df8adc230",
        "audit": "a53dbc068756f81ccccb43100f485fca1d74c59bbfe2790d222dd1d85a569eb7",
        "perspectives": "b88aaec90341d87c1fa47172c41967793ddf00e1183aa2ef4237b1f213398318",
        "perspectives --json": "0f022772e877035e8ef1254c87cd7947787a2139cd45bdc71b590b5321704dfb",
        "purity": "f7acbdf361ef76c36c9f5541d0f70b90dfbc5cd531de09de3f20add179d7c09a",
        "matrix": "ce6bfaed56d8035874dd12b78ada9e13e69e096657179a42014ac6f592170d8a",
    },
    "1e-05": {
        "exact": "3818c9c2029eb26850d3c7cd2b1726efb30365ab3ce0fa005e32973a05483c58",
        "audit": "d17facf0cd3f63e689b5e5f88ed27a25c22dcf8fab3998fceca7c90f43f6a361",
        "perspectives": "73810699ab3712d6ea488c66cca1c91ec68517fbd2e9dfc178926b61a74d21c9",
        "perspectives --json": "16d5dda57065169471c37e3700885ccfef2bbeea0c09b27950e0ad5ffb52f432",
        "purity": "1b59ed1eb620a6b427921375ea41ab035dce69c7a4a518646439746af52c2481",
        "matrix": "8ff3279c20334de8c1df063fe53635a23fdfeb8766bc4ea13cfbc28ac4669082",
    },
}

RECORD_TABLE_SHA256 = {
    "0": {
        "collapse": "773b525e105d5a1c5691f95947476c5ac20e8c1e1882f08967f7b7fa41a73c28",
        "unitary": "00b91a1a2d84a1fd2edfad64540fd678ab0f861bf900783d76b86f450f4ccb17",
    },
    "0.7": {
        "collapse": "773b525e105d5a1c5691f95947476c5ac20e8c1e1882f08967f7b7fa41a73c28",
        "unitary": "18d52ea0f6d3153fde067d4eb49b255cb18cf398a1c69611affa2bc3426c2849",
    },
    "1.57": {
        "collapse": "773b525e105d5a1c5691f95947476c5ac20e8c1e1882f08967f7b7fa41a73c28",
        "unitary": "d3bd182424eb3132466116dde639f211ea73bb74799d60e41b99a5430b9ed310",
    },
    "3.141592653589793": {
        "collapse": "773b525e105d5a1c5691f95947476c5ac20e8c1e1882f08967f7b7fa41a73c28",
        "unitary": "131a2d93daccdbc072721438aac61d15b5c36a91bb4037ff9dd8e03b14b8e2d5",
    },
    "2.2": {
        "collapse": "773b525e105d5a1c5691f95947476c5ac20e8c1e1882f08967f7b7fa41a73c28",
        "unitary": "e69037e559daf8945627459b646faefdb3f853fabbcc5ffe58f1ae502d6b0c67",
    },
    "-1": {
        "collapse": "773b525e105d5a1c5691f95947476c5ac20e8c1e1882f08967f7b7fa41a73c28",
        "unitary": "2e21a5078b964d77d61842d609a4818080574df243cd63e4da5d07e8e25cb8e5",
    },
    "6.283185307179586": {
        "collapse": "773b525e105d5a1c5691f95947476c5ac20e8c1e1882f08967f7b7fa41a73c28",
        "unitary": "00b91a1a2d84a1fd2edfad64540fd678ab0f861bf900783d76b86f450f4ccb17",
    },
    "1e-05": {
        "collapse": "773b525e105d5a1c5691f95947476c5ac20e8c1e1882f08967f7b7fa41a73c28",
        "unitary": "6db77feefd44169d314cfe1933150f45f8d0eb84d67d2747ed322318d066b332",
    },
}


@lru_cache(maxsize=None)
def _digests(theta: str) -> dict[str, str]:
    hashes = {group: hashlib.sha256() for group in GROUPS}
    # A wide terminal keeps argparse's usage on one line, as in the digest.
    with mock.patch.dict(os.environ, {"COLUMNS": "10000"}):
        for argv in grid(theta):
            for fmt in ([], ["--json"]):
                code, out, err = run(argv + fmt)
                group = " ".join(argv[:1] + fmt) if argv[0] == "perspectives" else argv[0]
                hashes[group].update(repr((argv + fmt, code, out, err)).encode("utf-8"))
    for agent, time, cond, rule in SWEEP_GRID:
        p = Perspective(agent, time, cond, AssignmentRule(rule))
        rho = assign(p, default_registers(time), float(theta))
        hashes["purity"].update(repr((agent, time, cond, rule, rho.purity())).encode("utf-8"))
        hashes["matrix"].update(rho.matrix.tobytes())
    return {group: digest.hexdigest() for group, digest in hashes.items()}


@pytest.mark.parametrize("theta, group", [(theta, group) for theta in THETAS for group in GROUPS])
def test_output_bytes_golden(theta, group):
    assert _digests(theta)[group] == GOLDEN_SHA256[theta][group], (
        f"{group!r} bytes moved at theta={theta} "
        f"(numpy {np.__version__}; the pins assume the reference numpy)"
    )


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("semantics", ["collapse", "unitary"])
def test_record_table_golden(theta, semantics):
    table = exact_record_distribution(ProtocolConfig(semantics=semantics, theta=float(theta)))
    digest = hashlib.sha256(repr(list(table.items())).encode("utf-8")).hexdigest()
    assert digest == RECORD_TABLE_SHA256[theta][semantics], (
        f"record table moved at theta={theta}, semantics={semantics} (numpy {np.__version__})"
    )
