"""Run configuration: JSON schema, validation, defaults and manifests.

A config file is a JSON object with optional blocks ``medium``,
``stack``, ``beam``, ``sweep`` and ``output``; missing keys take the
defaults below (which reproduce the asymmetric four-field setup of the
"fig2-ctl" preset).  An empty file means "all defaults".  Every value
is validated at load time, first against one type rule (numbers are
finite reals and not booleans, range counts are integers, switches are
JSON booleans), then against its domain.
"""

from __future__ import annotations

import cmath
import copy
import dataclasses
import functools
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ParseError, ValidationError
from .medium import EffectiveCouplings, MediumParams, effective_couplings
from .multilayer import LayerStack, RESONANT_DENOMINATOR_FLOOR
from .presets import preset_config
from .shifts import BREWSTER_FLOOR, BeamParams
from .sweep import GOLDEN_TOL_DEG

__all__ = ["RunConfig", "RunManifest", "load_config", "TOLERANCES"]

# points of one table: about ten fig2e maps, ~0.5 GB of table columns
MAX_TABLE_POINTS = 5_000_000
# validated configs, and config echoes as manifest text, kept per process
MEMO_CONFIGS = 16

TOLERANCES = {
    "brewster_floor_abs_rp": BREWSTER_FLOOR,
    "resonant_denominator_floor": RESONANT_DENOMINATOR_FLOOR,
    "golden_section_tol_deg": GOLDEN_TOL_DEG,
}


@dataclass(frozen=True)
class MediumConfig:
    gamma_b: float = 1.0
    gamma_e: float = 1.0
    eta: float = 0.1
    amplitudes: tuple = (1.5, 3.0, 2.5, 0.9)
    phases: tuple = (0.0, 0.0, 0.0, 0.0)
    # optional direct couplings [re, im]; set when the fields' dark/bright
    # split is degenerate (vanishing upper legs)
    alpha: tuple | None = None
    beta: tuple | None = None
    omega_total: float | None = None


@dataclass(frozen=True)
class StackConfig:
    eps1: tuple = (2.25, 0.0)
    eps3: tuple = (2.25, 0.0)
    thickness_d: float = 0.4e-6
    lam: float = 780e-9


@dataclass(frozen=True)
class BeamConfig:
    w0_lambdas: float = 50.0


@dataclass(frozen=True)
class SweepConfig:
    theta_deg: tuple = (30.0, 38.0, 801)
    detuning: tuple = (-6.0, 6.0, 601)
    eta_list: tuple | None = None


@dataclass(frozen=True)
class OutputConfig:
    out: str = "spinhall_out.csv"
    format: str = "csv"
    manifest_header: bool = False


@dataclass(frozen=True)
class RunConfig:
    medium: MediumConfig = field(default_factory=MediumConfig)
    stack: StackConfig = field(default_factory=StackConfig)
    beam: BeamConfig = field(default_factory=BeamConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def build(self):
        """Validated (MediumParams, LayerStack, BeamParams) triple.

        The stack's eps2 is seeded as vacuum; evaluation replaces it per
        detuning from the medium response.  The triple is built on the
        first call and shared by every later one: the three are frozen.
        """
        return self._built

    @functools.cached_property
    def _built(self):
        try:
            m = self.medium
            if m.alpha is not None or m.beta is not None or m.omega_total is not None:
                if None in (m.alpha, m.beta, m.omega_total):
                    raise ValidationError(
                        "direct couplings need all of alpha, beta, omega_total")
                couplings = EffectiveCouplings(
                    complex(*m.alpha), complex(*m.beta), float(m.omega_total))
            else:
                couplings = effective_couplings(m.amplitudes, m.phases)
            medium = MediumParams(gamma_b=m.gamma_b, gamma_e=m.gamma_e,
                                  eta=m.eta, couplings=couplings)
            stack = LayerStack(eps2=1.0 + 0j,
                               eps1=complex(*self.stack.eps1),
                               eps3=complex(*self.stack.eps3),
                               thickness_d=self.stack.thickness_d)
            beam = BeamParams(w0=self.beam.w0_lambdas * self.stack.lam,
                              lam=self.stack.lam,
                              eps_incident=float(self.stack.eps1[0]))
            # the stack squares the outer layers' wave numbers
            k0_squared = beam.k0 ** 2
            if not (cmath.isfinite(k0_squared * stack.eps1)
                    and cmath.isfinite(k0_squared * stack.eps3)):
                raise ValueError("eps1 and eps3 out of range: k0^2 eps1 and k0^2 eps3 "
                                 "must be finite")
        except (ValueError, TypeError) as exc:
            raise ValidationError(str(exc)) from exc
        return medium, stack, beam

    def to_dict(self) -> dict:
        """The config as JSON values, in fresh dicts on every call."""
        return {name: dict(block) for name, block in self._plain.items()}

    @functools.cached_property
    def _plain(self) -> dict:
        return dataclasses.asdict(self)  # its values are immutable


_BLOCKS = {"medium": MediumConfig, "stack": StackConfig, "beam": BeamConfig,
           "sweep": SweepConfig, "output": OutputConfig}
_TUPLE_FIELDS = {"amplitudes", "phases", "alpha", "beta", "eps1", "eps3",
                 "theta_deg", "detuning", "eta_list"}


def _check_kind(name: str, key: str, value, index=None):
    """The one type rule of a value (or list entry ``index``): text, JSON
    boolean, integer count of a sweep range, else a finite real number."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if key in ("out", "format"):
        ok, kind = isinstance(value, str), "a string"
    elif key == "manifest_header":
        ok, kind = isinstance(value, bool), "true or false"
    elif key in ("theta_deg", "detuning") and index == 2:  # [min, max, count]
        ok, kind = number and isinstance(value, int), "an integer"
    else:  # NaN fails the comparison; an integer is compared exactly
        ok, kind = number and abs(value) <= sys.float_info.max, "a finite number"
    if not ok:
        raise ValidationError(f"'{name}' must be {kind}, got {value!r}")


def _build_block(cls, data: dict, block: str):
    if not isinstance(data, dict):
        raise ValidationError(f"'{block}' must be a JSON object")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown key(s) in '{block}': {sorted(unknown)}")
    coerced = {}
    for key, value in data.items():
        if value is None and defaults[key] is None:
            pass
        elif key in _TUPLE_FIELDS:
            if not isinstance(value, (list, tuple)):
                raise ValidationError(f"'{block}.{key}' must be a list")
            for i, entry in enumerate(value):
                _check_kind(f"{block}.{key}[{i}]", key, entry, i)
            value = tuple(value)
        else:
            _check_kind(f"{block}.{key}", key, value)
        coerced[key] = value
    return cls(**coerced)


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - set(_BLOCKS)
    if unknown:
        raise ValidationError(f"unknown top-level key(s): {sorted(unknown)}")
    blocks = {}
    for name, cls in _BLOCKS.items():
        blocks[name] = _build_block(cls, data.get(name, {}), name)
    cfg = RunConfig(**blocks)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    m = cfg.medium
    if len(m.amplitudes) != 4 or len(m.phases) != 4:
        raise ValidationError("amplitudes and phases must each have 4 entries")
    if any(a < 0 for a in m.amplitudes):
        raise ValidationError("field amplitudes must be >= 0")
    if cfg.output.format not in ("csv", "json"):
        raise ValidationError("output format must be 'csv' or 'json'")
    for name, rng in (("theta_deg", cfg.sweep.theta_deg),
                      ("detuning", cfg.sweep.detuning)):
        if len(rng) != 3 or rng[2] < 2 or not rng[0] < rng[1]:
            raise ValidationError(f"sweep.{name} must be [min, max, count>=2] with min < max")
    if cfg.sweep.eta_list is not None and not cfg.sweep.eta_list:
        raise ValidationError("sweep.eta_list must hold at least one eta, or be null")
    if any(eta < 0 for eta in cfg.sweep.eta_list or ()):
        raise ValidationError("every sweep.eta_list entry must be >= 0, as eta")
    check_table_points(cfg.sweep.theta_deg[2], cfg.sweep.detuning[2],
                       len(cfg.sweep.eta_list or [None]))
    cfg.build()  # the domain objects check eta, rates, lengths and the waist


def check_table_points(*counts: int) -> None:
    """Refuse a table of prod(counts) points above MAX_TABLE_POINTS; called
    on the axis counts, before any axis is allocated."""
    points = math.prod(counts)
    if points > MAX_TABLE_POINTS:
        raise ValidationError(f"a table of {points} points exceeds the limit of "
                              f"{MAX_TABLE_POINTS}")


def load_config(path=None, preset: str | None = None) -> RunConfig:
    """Config from a JSON file and/or a named preset, over the defaults.

    Precedence: defaults < preset < file.  An empty or absent file
    contributes nothing.  The file is read on every call; the validated
    config of each (preset, file text) is kept for the process, so a
    repeated call returns the same instance and a rewritten file is a
    new config.  A refused config is never kept.
    """
    text = None
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        return _config_of(preset, text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc.__cause__


@functools.lru_cache(maxsize=MEMO_CONFIGS)
def _config_of(preset: str | None, text: str | None) -> RunConfig:
    """The validated config of ``preset`` under the JSON ``text``; a
    ParseError names no file."""
    merged: dict = {}
    if preset is not None:
        try:
            _merge(merged, preset_config(preset))
        except KeyError as exc:
            raise ValidationError(exc.args[0]) from exc
    if text is not None and text.strip():
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise ParseError("top level must be a JSON object")
        _merge(merged, data)
    return config_from_dict(merged)


def _merge(base: dict, extra: dict):
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = copy.deepcopy(value)  # never alias a preset's blocks


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record emitted alongside every data file."""

    command: list
    config: dict
    row_count: int
    flagged_count: int
    flag_counts: dict = field(default_factory=dict)  # rows by kind of flag
    tool: str = "spinhall"
    version: str = __version__
    timestamp_utc: str = ""
    tolerances: dict = field(default_factory=lambda: dict(TOLERANCES))

    @classmethod
    def for_run(cls, command, cfg: RunConfig, row_count: int,
                flagged_count: int, flag_counts=None) -> "RunManifest":
        return cls(command=list(command), config=cfg.to_dict(),
                   row_count=row_count, flagged_count=flagged_count,
                   flag_counts=dict(flag_counts or {}),
                   timestamp_utc=datetime.now(timezone.utc).isoformat())

    def to_json(self) -> str:
        """``json.dumps(vars(self), indent=2, sort_keys=True)``, with the
        config block's text encoded once per distinct config."""
        fields = vars(self)  # only JSON values, so no dataclasses.asdict copy
        text = json.dumps({**fields, "config": None}, indent=2, sort_keys=True)
        # a JSON string holds no raw newline, so this is the top-level key
        return text.replace('\n  "config": null',
                            '\n  "config": ' + _echo_text(fields["config"]), 1)

    def write(self, data_path) -> Path:
        path = Path(str(data_path) + ".manifest.json")
        with atomic_output(path) as fh:
            fh.write(self.to_json() + "\n")
        return path


_ECHOES: dict = {}  # repr of a config echo -> its text in a manifest


def _echo_text(config) -> str:
    """The JSON text of a manifest's config block, indented as the value of
    a top-level key, encoded once per process for each distinct repr of
    ``config``.  Their repr tells apart any two values that json.dumps
    writes differently: 1, 1.0 and True, a tuple of each, two strings."""
    key = repr(config)
    text = _ECHOES.get(key)
    if text is None:
        text = json.dumps(config, indent=2, sort_keys=True).replace("\n", "\n  ")
        if len(_ECHOES) >= MEMO_CONFIGS:
            del _ECHOES[next(iter(_ECHOES))]  # the oldest
        _ECHOES[key] = text
    return text


@contextmanager
def atomic_output(path):
    """Text handle on a sibling temporary file that replaces ``path`` when
    the block ends; on any exception it is removed and ``path`` is left as
    it was, so no reader ever sees a partial file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
