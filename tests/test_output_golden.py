"""Every CLI byte and every assigned matrix on the digest grid, pinned per angle and group.

``tests/cli_digest.py`` prints one hash over its whole grid, for comparing
two checkouts by hand.  This test pins the same runs as one sha256 per
(θ, group), so a change names the group and the angle it moved:

* ``exact`` and ``audit``: every run as a table and as ``--json``;
* ``perspectives`` and ``perspectives --json``: every perspective run;
* ``purity``: the ``repr`` of each assigned-state purity on the sweep grid;
* ``matrix``: the raw bytes of each matrix the sweep grid assigns.

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

from _oracles import SWEEP_GRID, default_registers
from cli_digest import THETAS, grid, run

GROUPS = ("exact", "audit", "perspectives", "perspectives --json", "purity", "matrix")

GOLDEN_SHA256 = {
    "0": {
        "exact": "e40927480c23aee7895a4d6ef423dfd0a45788a6051b73d4c2910790f39276c9",
        "audit": "dfc9c51756bfc0c4e99fe72d298e4fe7caf7165dd4466ada8cd7570d8177b7b3",
        "perspectives": "0b5ace7fe7349669026c0da73dcbb416ced070b825f648d47e744f47a2e8ba49",
        "perspectives --json": "ecd0d2a0dc6d01b02309e1d6a5d190b79e12bd9e659d3431575c4cb7d98c7e31",
        "purity": "f6da465823e5e3f08de900e3ba05acb77a2d7960aab02c72fe2268c9b544a6c0",
        "matrix": "d9adfca2dacbd0f038bc68506e5cc7cf0c379d7de734ba1180923dcca8e569da",
    },
    "0.7": {
        "exact": "cfd86073c09ba9ebc8c55d92bb7b610a239e4de1a0367fe3b6f8314d1d3e0ac0",
        "audit": "09d68f46ab71eb29ca9e110c6f1ba897532000ca6e396e0f7e3de48aace0f382",
        "perspectives": "d6dcc2c07235d5b3da0d69aa1c1c4bc913a9eafe323e3da46a4b71d31fba43bd",
        "perspectives --json": "4e6e90c07c212a8ec6b9a192bff6c66a0f6b603c633a41ecb5225a7aefa598b5",
        "purity": "224c2e1daa4b5566cf22cbe40284f537b0f8b5a13622ccaca29648d0068f2629",
        "matrix": "7cb5fc427c44dbf420936f8cb6aa62e8e3e902ded475806d7180f5aacf22ce40",
    },
    "1.57": {
        "exact": "dba46447614356b9bb4475fdd6367b24c4b4fad694bb43978de48e3878b938e5",
        "audit": "670b06a073cf77b673f4567c815156d894f0b3630ef4328123b8a029a33ec108",
        "perspectives": "910403d953ae0491487dc78f1aee12263172ff8a3d4edd6424f53c62ebe01900",
        "perspectives --json": "52a3f4d624f3c2c48631e576a4f28a87d310e650f3723b961e339cf06f3f94f5",
        "purity": "db0725c40915c1f505f22a3fe5141841126a8255e3269ce7a77a55256db4f184",
        "matrix": "ba9b9c79c8d3b3222dad4f3d6053d29c4ab11eacd284debbae1dd582a9bb449a",
    },
    "3.141592653589793": {
        "exact": "5c9562744facf3dc1e96b02f8e2d129c9e4240a12fd1b00c650820eef7850d6c",
        "audit": "6cfad302171df38f884412120021890076b5009042c6c75d9d0499b025d47b01",
        "perspectives": "95f23f79d167e25219292591a7abe08d2eda41b5a4340e10cd43ebf40c6ca3d0",
        "perspectives --json": "c027d070187b25f51d5ee9fca2239a6ff3f2848d13835198b3312f31815ba156",
        "purity": "e9f2455c7acfaf2c77b781ca062e52a667190e580e84a19d2fd96343fe1e869d",
        "matrix": "c1f1fb9c120b8d89fd9d54f90ae55822abf9a54abdbd6bfdcf0e20dfceed9c14",
    },
    "2.2": {
        "exact": "69bd7d42356d4529d9d26dc0b6c505e6c9b609e0801dcb254f57e6c68f695e78",
        "audit": "4e810f41f4dbf86e330d5aea2756a1eaac5a0afb1e4ea3c3d7410e979dbebeba",
        "perspectives": "537b43a6fdae8779501b505fba2be23a59ad0778d650bfe1b0ad4562c6f48f1f",
        "perspectives --json": "e51f51317877aeb8c2929d2df55bf0313cd2beb01e142eb79ce1f3766044954a",
        "purity": "b9a53b6ff9a204eb46f2560c836819d6cb1c863eefd363a860c162367666142c",
        "matrix": "28f89ac5b1cb9d08cd9963e1e90c6cb8160b5d64ece7cd3787b85a6e87608a8c",
    },
    "-1": {
        "exact": "6c06ab7089161d97edafd470bfeb8001755c456a6ffdd78e489de46319b06275",
        "audit": "f343d7991d87e775934f618abe76f7de4e289a2484c9cbca1b0ab82d7f88755d",
        "perspectives": "9b16d19e0db51530aff3176d3c411c6187927a1d5563341e5be67d4d65753ec9",
        "perspectives --json": "d4261e634f3dd2e588f5ae3a5c16445c7f8dab268210437e92110212330beb3e",
        "purity": "31c86853c5ba873b322b1b200d9bbed4ae700ff5bf380b9ccc10c105f4d855c4",
        "matrix": "32e0743be08577fa7766862198c404210edb52808ef505ad1665d09245987f44",
    },
    "6.283185307179586": {
        "exact": "91e1ed39f66f35fe25afd475fa0d33f8152bca0eabe538b6023e107df8adc230",
        "audit": "a53dbc068756f81ccccb43100f485fca1d74c59bbfe2790d222dd1d85a569eb7",
        "perspectives": "b88aaec90341d87c1fa47172c41967793ddf00e1183aa2ef4237b1f213398318",
        "perspectives --json": "cb189ca45d0bbb361a838e36760648b85159872ed11873f508951241f7bf3ed0",
        "purity": "f6da465823e5e3f08de900e3ba05acb77a2d7960aab02c72fe2268c9b544a6c0",
        "matrix": "ce6bfaed56d8035874dd12b78ada9e13e69e096657179a42014ac6f592170d8a",
    },
    "1e-05": {
        "exact": "3818c9c2029eb26850d3c7cd2b1726efb30365ab3ce0fa005e32973a05483c58",
        "audit": "4ba99908ff084d71958c2f6a73e385410303fb82e6431698f6eee8012fd3b3ef",
        "perspectives": "5ee333b727296019ac91706cc925dde5fcf54b2bbe4de169cf6c7b06e9290045",
        "perspectives --json": "41416f7a8d85bb563ab41a3b35cdcf8a7a43379fe0b79edf4c1e16316a2f02f2",
        "purity": "1b59ed1eb620a6b427921375ea41ab035dce69c7a4a518646439746af52c2481",
        "matrix": "8ff3279c20334de8c1df063fe53635a23fdfeb8766bc4ea13cfbc28ac4669082",
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
