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
        "perspectives --json": "170610ccb27a8dd9bc0c9e4be8c95af1ae35fc62076f6c815a1ae2aa84fb91bf",
        "purity": "f7acbdf361ef76c36c9f5541d0f70b90dfbc5cd531de09de3f20add179d7c09a",
        "matrix": "d9adfca2dacbd0f038bc68506e5cc7cf0c379d7de734ba1180923dcca8e569da",
    },
    "0.7": {
        "exact": "cfd86073c09ba9ebc8c55d92bb7b610a239e4de1a0367fe3b6f8314d1d3e0ac0",
        "audit": "09d68f46ab71eb29ca9e110c6f1ba897532000ca6e396e0f7e3de48aace0f382",
        "perspectives": "d6dcc2c07235d5b3da0d69aa1c1c4bc913a9eafe323e3da46a4b71d31fba43bd",
        "perspectives --json": "469a2b4c40d155372529480a9f2112e468a31f9405ddc128d2512159b128989f",
        "purity": "12d6f228fea37068db89619cc0a7903f2686038b91e86a92cc43812df3737e09",
        "matrix": "7cb5fc427c44dbf420936f8cb6aa62e8e3e902ded475806d7180f5aacf22ce40",
    },
    "1.57": {
        "exact": "dba46447614356b9bb4475fdd6367b24c4b4fad694bb43978de48e3878b938e5",
        "audit": "670b06a073cf77b673f4567c815156d894f0b3630ef4328123b8a029a33ec108",
        "perspectives": "910403d953ae0491487dc78f1aee12263172ff8a3d4edd6424f53c62ebe01900",
        "perspectives --json": "5b8a157eed4f89f309ee74d6949bd795e28af0afadd0fe5dab05aa0a1172ce97",
        "purity": "db0725c40915c1f505f22a3fe5141841126a8255e3269ce7a77a55256db4f184",
        "matrix": "ba9b9c79c8d3b3222dad4f3d6053d29c4ab11eacd284debbae1dd582a9bb449a",
    },
    "3.141592653589793": {
        "exact": "5c9562744facf3dc1e96b02f8e2d129c9e4240a12fd1b00c650820eef7850d6c",
        "audit": "6cfad302171df38f884412120021890076b5009042c6c75d9d0499b025d47b01",
        "perspectives": "95f23f79d167e25219292591a7abe08d2eda41b5a4340e10cd43ebf40c6ca3d0",
        "perspectives --json": "3f1f6b6b0de931fe22c1d2dbb8dac40fbf234950b9934a165ba1d77c05c0bec6",
        "purity": "1888daf51144099daf8341a7319c3d939c1e2254e960bbf62aa432a127452ec8",
        "matrix": "c1f1fb9c120b8d89fd9d54f90ae55822abf9a54abdbd6bfdcf0e20dfceed9c14",
    },
    "2.2": {
        "exact": "69bd7d42356d4529d9d26dc0b6c505e6c9b609e0801dcb254f57e6c68f695e78",
        "audit": "4e810f41f4dbf86e330d5aea2756a1eaac5a0afb1e4ea3c3d7410e979dbebeba",
        "perspectives": "537b43a6fdae8779501b505fba2be23a59ad0778d650bfe1b0ad4562c6f48f1f",
        "perspectives --json": "e95b54a4947183c901618a2c99000cb84aa1e6fdb3b56ec2c751e974fea163b6",
        "purity": "c082bc488aa4e102e35abbbfc5309e1c5132633c719014f664147bddd7b7155a",
        "matrix": "28f89ac5b1cb9d08cd9963e1e90c6cb8160b5d64ece7cd3787b85a6e87608a8c",
    },
    "-1": {
        "exact": "6c06ab7089161d97edafd470bfeb8001755c456a6ffdd78e489de46319b06275",
        "audit": "f343d7991d87e775934f618abe76f7de4e289a2484c9cbca1b0ab82d7f88755d",
        "perspectives": "9b16d19e0db51530aff3176d3c411c6187927a1d5563341e5be67d4d65753ec9",
        "perspectives --json": "b74bfc9cb207e52561f1f865de71d6aad8b2c97d250bc047094be2ab388dbbcf",
        "purity": "4d70c05f0774e6d9c2f425eb8f63337d66318c515cf5d9749675a99f495d17a0",
        "matrix": "32e0743be08577fa7766862198c404210edb52808ef505ad1665d09245987f44",
    },
    "6.283185307179586": {
        "exact": "91e1ed39f66f35fe25afd475fa0d33f8152bca0eabe538b6023e107df8adc230",
        "audit": "a53dbc068756f81ccccb43100f485fca1d74c59bbfe2790d222dd1d85a569eb7",
        "perspectives": "b88aaec90341d87c1fa47172c41967793ddf00e1183aa2ef4237b1f213398318",
        "perspectives --json": "dab3d2e10bf382140371656c7f7526a0b7a4db8e9cc5052f65913e1bdc20901c",
        "purity": "f7acbdf361ef76c36c9f5541d0f70b90dfbc5cd531de09de3f20add179d7c09a",
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
