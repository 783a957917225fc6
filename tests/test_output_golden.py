"""Every CLI byte and every assigned matrix on the digest grid, pinned per angle and group.

``tests/cli_digest.py`` prints one hash over its whole grid, for comparing
two checkouts by hand.  This test reads the same runs from its record
(``cli_digest.recorded``) and pins them as one sha256 per (θ, group), so a
change names the group and the angle it moved:

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
from functools import lru_cache

import numpy as np
import pytest

from ewfs.perspectives import AssignmentRule, Perspective, assign
from ewfs.protocol import ProtocolConfig, exact_record_distribution

from _oracles import SWEEP_GRID, default_registers
from cli_digest import THETAS, grid, recorded

GROUPS = ("exact", "audit", "perspectives", "perspectives --json", "purity", "matrix")

GOLDEN_SHA256 = {
    "0": {
        "exact": "e40927480c23aee7895a4d6ef423dfd0a45788a6051b73d4c2910790f39276c9",
        "audit": "d0e46fad696881b8882b509b6e9c054cf5bbf006857180563daa86514bd7077d",
        "perspectives": "0b5ace7fe7349669026c0da73dcbb416ced070b825f648d47e744f47a2e8ba49",
        "perspectives --json": "29da0ee72706ac2736afaf948c61bd64cde4b239ed07c71b6d4e3ec5b6eb9ec3",
        "purity": "f7acbdf361ef76c36c9f5541d0f70b90dfbc5cd531de09de3f20add179d7c09a",
        "matrix": "d9adfca2dacbd0f038bc68506e5cc7cf0c379d7de734ba1180923dcca8e569da",
    },
    "0.7": {
        "exact": "cfd86073c09ba9ebc8c55d92bb7b610a239e4de1a0367fe3b6f8314d1d3e0ac0",
        "audit": "3862a01ed754feb554a72571f33ad9d10afb4b4cf74ac4a213ef37dc5ae45fe0",
        "perspectives": "d6dcc2c07235d5b3da0d69aa1c1c4bc913a9eafe323e3da46a4b71d31fba43bd",
        "perspectives --json": "ca8b3a9f63ea8ef584744626036ca05ad2882fa3bb888a7f97254f1c82f94447",
        "purity": "0d8e64be94af89057d57e680c5497f8cd46693d8b070f5ca8345af6233c16f35",
        "matrix": "90cff390cb56fe4916ad177238667639856c7b475795df05d58140a6d6ca2d7f",
    },
    "1.57": {
        "exact": "dba46447614356b9bb4475fdd6367b24c4b4fad694bb43978de48e3878b938e5",
        "audit": "455bf63efa434a295baeef6e6b1b1f7ef823824cbcb387676ff4a8ae1c38038e",
        "perspectives": "910403d953ae0491487dc78f1aee12263172ff8a3d4edd6424f53c62ebe01900",
        "perspectives --json": "30dc0cfa68e34a206f39a7b3567c7f506d38f4de6328bde5c2bb04cf3d93390e",
        "purity": "e49adc9f35d842975d985555f86bd98c8f25924f91cfe8c308536aedbbdaf794",
        "matrix": "353d9630671e89e1b8cc309f12c670f14392673e88a4ffe5e3b011790c075dbb",
    },
    "3.141592653589793": {
        "exact": "5c9562744facf3dc1e96b02f8e2d129c9e4240a12fd1b00c650820eef7850d6c",
        "audit": "3dcfc4dbaa7159e18190741fe6252ac9b0b9383e76e7e7ac1fa50aa7dd989028",
        "perspectives": "95f23f79d167e25219292591a7abe08d2eda41b5a4340e10cd43ebf40c6ca3d0",
        "perspectives --json": "8a8010e18b7ef8e5a5b6b6b454273df9b10a43834ce4f6edaf9401c3eece8a35",
        "purity": "1888daf51144099daf8341a7319c3d939c1e2254e960bbf62aa432a127452ec8",
        "matrix": "d38e76dc9918ab8de439ffdb95b00b0e83657b8223c97a1ec2f6e824dd20b702",
    },
    "2.2": {
        "exact": "69bd7d42356d4529d9d26dc0b6c505e6c9b609e0801dcb254f57e6c68f695e78",
        "audit": "744ce0bc88a9674241a04d628b51f674df9e872f8d31de38670dac3592afdbc3",
        "perspectives": "537b43a6fdae8779501b505fba2be23a59ad0778d650bfe1b0ad4562c6f48f1f",
        "perspectives --json": "4135d12be99ceb66b3bcb785a6bdb0770194eebbab91be8098eb7a2e3800b36b",
        "purity": "a6bf8670c6d38dc80007e57338c77367a3c0030c3b6c672148bcfa93cc1c052a",
        "matrix": "2b3592dd9b4c206b3ccc6f9c892628c3eecedba06a243c6081a6b7baa12ac1c1",
    },
    "-1": {
        "exact": "6c06ab7089161d97edafd470bfeb8001755c456a6ffdd78e489de46319b06275",
        "audit": "8647dc2d44f08d2357d0a943f028fbf1161d37f2a62408519f924f1f3b0e7f38",
        "perspectives": "9b16d19e0db51530aff3176d3c411c6187927a1d5563341e5be67d4d65753ec9",
        "perspectives --json": "96d15031c77b13b4992d1dc05507a2dcb55b79eb40c27e535963ef95fd78cfbb",
        "purity": "97c3b8e81740e4e55bd4494f2bdce656937fab747d6c58c7f9aa9c35affcb15a",
        "matrix": "3d9d540f8f472df16c6ed7f15828b7f2e05275c76f80f424b108a35643a8c0d0",
    },
    "6.283185307179586": {
        "exact": "91e1ed39f66f35fe25afd475fa0d33f8152bca0eabe538b6023e107df8adc230",
        "audit": "626e40f0fca48cffe14205195f06865b13d4a664e5a5cfef98b3b731820fc2e4",
        "perspectives": "b88aaec90341d87c1fa47172c41967793ddf00e1183aa2ef4237b1f213398318",
        "perspectives --json": "587ed97e5bb60f1b73eb3dfff99a489a636dec6676d8ef65f11adf9a6359ad6c",
        "purity": "f7acbdf361ef76c36c9f5541d0f70b90dfbc5cd531de09de3f20add179d7c09a",
        "matrix": "319ce8bc361cd79a2c0bad200ac0e4d9d9f33c249147000189f630c9adcbc743",
    },
    "1e-05": {
        "exact": "3818c9c2029eb26850d3c7cd2b1726efb30365ab3ce0fa005e32973a05483c58",
        "audit": "7a3d7cee005431521713641064e6da3778fff28ac45555a17f1900dc88b90c56",
        "perspectives": "73810699ab3712d6ea488c66cca1c91ec68517fbd2e9dfc178926b61a74d21c9",
        "perspectives --json": "11474f39814c04df66fc7bc91a29af5f834e4b4af4a5838507a75a614c37e7b4",
        "purity": "ba463a7dc1a719f78735e9be67547b09dc43c2ca406212b3e45125ce652126ac",
        "matrix": "161b308fd2a731e596080d175d62d8b2655a61c5b37906cde4486e10f9f6a42c",
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
    runs = recorded(theta)
    for argv in grid(theta):
        for fmt in ([], ["--json"]):
            group = " ".join(argv[:1] + fmt) if argv[0] == "perspectives" else argv[0]
            hashes[group].update(repr((argv + fmt, *runs[(*argv, *fmt)])).encode("utf-8"))
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
