"""Spin-dependent beam shifts of a Gaussian probe reflected from a
glass / atomic-vapor / glass cavity driven by four coherent control fields."""

__version__ = "0.1.0"

from .errors import (DegenerateBrightState, InvalidAngle, NoMinimumInWindow,
                     NoSignChange, ParseError, ResonantDenominator,
                     SingularDenominator, SpinHallError, ValidationError)
from .medium import (EffectiveCouplings, MediumParams, coherence_ratio,
                     effective_couplings, susceptibility)
from .multilayer import (LayerStack, reflection_coefficients,
                         stack_reflection_derivative)
from .shifts import BeamParams, shift_kernel
from .sweep import (ScanContext, SweepGrid, SweepTable, evaluate,
                    extremal_angles, find_brewster, find_sign_flip,
                    find_transparency_windows, max_shift_vs_detuning,
                    shift_from_beam_integral)
from .config import RunConfig, RunManifest, load_config

__all__ = [name for name in dir() if not name.startswith("_")]
