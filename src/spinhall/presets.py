"""Bundled parameter presets for the three canonical field configurations.

Each preset is a plain config dictionary (same schema as a config file):
"fig2-ctl" drives all four control fields asymmetrically so both
effective couplings are on, "fig3-lambda" uses the symmetric amplitudes
with loop phase pi (alpha = 0), and "fig4-ntype" the same amplitudes
with loop phase 0 (beta = 0).
"""

import math

PRESETS = {
    "fig2-ctl": {
        "medium": {
            "amplitudes": [1.5, 3.0, 2.5, 0.9],
            "phases": [0.0, 0.0, 0.0, 0.0],
            "eta": 0.1,
        },
    },
    "fig3-lambda": {
        "medium": {
            "amplitudes": [0.5, 0.5, 0.7, 0.7],
            "phases": [math.pi, 0.0, 0.0, 0.0],
            "eta": 0.1,
        },
    },
    "fig4-ntype": {
        "medium": {
            "amplitudes": [0.5, 0.5, 0.7, 0.7],
            "phases": [0.0, 0.0, 0.0, 0.0],
            "eta": 0.1,
        },
    },
}

def preset_config(name: str) -> dict:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
