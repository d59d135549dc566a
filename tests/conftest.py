import json

import pytest


@pytest.fixture
def spec_file(tmp_path):
    """Write a function-spec document to disk and return its path."""

    def write(doc, name="func.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)

    return write


SPEC_TAKAGI2 = {"kind": "takagi", "r": 2}
SPEC_DISTANCE = {"kind": "distance"}
SPEC_U_THETA2 = {"kind": "useries", "r": 2, "psi": {"kind": "theta_splice", "r": 2}}
SPEC_WEIER_ETA = {"kind": "useries", "r": 2, "psi": {"kind": "sin2pi"}}
SPEC_PSI0 = {
    "kind": "sum",
    "terms": [
        {"kind": "distance"},
        {"kind": "scale", "a": "1", "child": {"kind": "distance_power", "p": 2}},
    ],
}
# psi = d + g: g >= 0 on [0, 1/2] with a tangency at 1/3, so certify_nonneg
# cannot decide that piece, and g < 0 only on (1197/2000, 1201/2000), between
# the samples j/256 of the piece [1/2, 5/8]
SPEC_DIP = {
    "kind": "poly_spline",
    "knots": ["0", "1/2", "5/8", "1"],
    "pieces": [
        ["0", "539597/500000", "-118791/250000", "356373/500000"],
        ["5437597/4000000", "-2199/1000", "1"],
        ["1502597/1500000", "-1502597/1500000"],
    ],
}
