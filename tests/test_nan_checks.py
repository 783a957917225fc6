"""Every value check rejects NaN.

Each check is written as a comparison that NaN fails (``not dev <= tol``),
so a NaN deviation, norm, trace or probability raises with the same message
a too-large one gets, instead of slipping through a ``dev > tol`` test.
"""

import numpy as np
import pytest

from ewfs.protocol import JointDistribution
from ewfs.qcore import DensityMatrix, Operator, SpaceLayout, StateVector

NAN = float("nan")
LAYOUT = SpaceLayout((("a", 2),))
NAN_MATRIX = [[NAN, 0.0], [0.0, 1.0]]

CONSTRUCTORS = {
    "state vector": lambda: StateVector(LAYOUT, [NAN, 1.0]),
    "unitary operator": lambda: Operator(LAYOUT, NAN_MATRIX, kind="unitary"),
    "projector operator": lambda: Operator(LAYOUT, NAN_MATRIX, kind="projector"),
    "density matrix": lambda: DensityMatrix(LAYOUT, NAN_MATRIX),
    "gram state": lambda: DensityMatrix._gram(LAYOUT, np.array([[NAN], [1.0]], dtype=complex), 1.0),
    "joint distribution": lambda: JointDistribution(
        {("okbar", "ok"): NAN, ("failbar", "fail"): 1.0}
    ),
}


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_value_checks_reject_nan(name):
    with pytest.raises(ValueError, match="nan"):
        CONSTRUCTORS[name]()
