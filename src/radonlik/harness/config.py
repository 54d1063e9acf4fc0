"""Experiment configuration: YAML file, schema validation, defaults.

A config file is a single nested key/value document. Everything has a
default, so the file may configure any subset. The only environment
variable honored is RADONLIK_OUT, which overrides the output directory.
"""

from __future__ import annotations

import copy
import math
import os
from pathlib import Path

import jsonschema
import yaml

from ..bayes import Prior
from ..diffusion import SDE_CATALOG
from ..expfam import EXPFAM_CATALOG
from ..mixture import COMPONENT_CATALOG
from ..poisson import INTENSITY_CATALOG


class ConfigError(Exception):
    """Invalid configuration; the message carries the offending path."""


DEFAULT_CONFIG = {
    "seed": 20260810,
    "tol": 1e-8,
    "out": "out",
    "proportionality": {
        "instances": 100,
        "sample_size": 20,
    },
    "mixture": {
        "component": "exponential",
        "atom": 0.0,
        "p_true": 0.3,
        "n_samples": 10000,
        "p_grid": {"start": 0.05, "stop": 0.95, "count": 19},
    },
    "expfam": {
        "families": ["bernoulli", "poisson", "gaussian"],
        "sample_size": 25,
    },
    "poisson": {
        "intensity": "constant",
        "region": [0.0, 1.0],
        "patterns": 100,
        "replicates": 10000,
        "grid": {"start": 0.5, "stop": 6.0, "count": 12},
    },
    "diffusion": {
        "sde": "ou",
        "mc_replicates": 20000,
        "mc_step": 4e-3,
        "observations": None,
    },
    "bayes": {
        "n_max": 10,
        "priors": ["uniform-grid", "beta(2,3)"],
    },
    "mcem": {
        "omega1": 1.3,
        "rho": 0.5,
        "mc_size": 10000,
        "iterations": 20,
        "tilt": "gaussian",
        "tilt_tau": 2.0,
    },
}

_GRID_SCHEMA = {
    "type": "object",
    "properties": {
        "start": {"type": "number"},
        "stop": {"type": "number"},
        "count": {"type": "integer", "minimum": 1},
    },
    "required": ["start", "stop", "count"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "out": {"type": "string"},
        "proportionality": {
            "type": "object",
            "properties": {
                "instances": {"type": "integer", "minimum": 1},
                "sample_size": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "mixture": {
            "type": "object",
            "properties": {
                "component": {"enum": list(COMPONENT_CATALOG)},
                "atom": {"type": "number"},
                "p_true": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "n_samples": {"type": "integer", "minimum": 1},
                "p_grid": _GRID_SCHEMA,
            },
            "additionalProperties": False,
        },
        "expfam": {
            "type": "object",
            "properties": {
                "families": {
                    "type": "array",
                    "items": {"enum": list(EXPFAM_CATALOG)},
                    "minItems": 1,
                },
                "sample_size": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "poisson": {
            "type": "object",
            "properties": {
                "intensity": {"enum": list(INTENSITY_CATALOG)},
                "region": {"type": "array", "items": {"type": "number"},
                           "minItems": 2, "maxItems": 2},
                "patterns": {"type": "integer", "minimum": 1},
                "replicates": {"type": "integer", "minimum": 100},
                "grid": _GRID_SCHEMA,
            },
            "additionalProperties": False,
        },
        "diffusion": {
            "type": "object",
            "properties": {
                "sde": {"enum": list(SDE_CATALOG)},
                "mc_replicates": {"type": "integer", "minimum": 100},
                "mc_step": {"type": "number", "exclusiveMinimum": 0},
                "observations": {"type": ["string", "null"]},
            },
            "additionalProperties": False,
        },
        "bayes": {
            "type": "object",
            "properties": {
                "n_max": {"type": "integer", "minimum": 1, "maximum": 10},
                "priors": {
                    "type": "array",
                    "items": {"type": "string",
                              "pattern": r"^(uniform-grid|beta\(\s*[0-9.]+\s*,\s*[0-9.]+\s*\))$"},
                    "minItems": 1,
                },
            },
            "additionalProperties": False,
        },
        "mcem": {
            "type": "object",
            "properties": {
                "omega1": {"type": "number"},
                "rho": {"type": "number", "exclusiveMinimum": -1, "exclusiveMaximum": 1},
                "mc_size": {"type": "integer", "minimum": 100},
                "iterations": {"type": "integer", "minimum": 0},
                "tilt": {"enum": ["gaussian", "identity"]},
                "tilt_tau": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path=None) -> dict:
    """Defaults merged with the YAML file at `path`, schema-validated."""
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            raw = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a mapping at top level")
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        where = "/".join(str(p) for p in exc.absolute_path) or "(top level)"
        raise ConfigError(f"config error at {where}: {exc.message}") from exc
    config = _merge(DEFAULT_CONFIG, raw)
    if config["poisson"]["intensity"] == "loglinear":
        raise ConfigError("config error at poisson/intensity: 'loglinear' takes theta = (a, b), "
                          "but poisson.grid is a grid of scalars; pick another poisson.intensity")
    for label in config["bayes"]["priors"]:
        prior_beta_params(label)
    return config


def prior_beta_params(label: str) -> tuple[float, float]:
    """The (a, b) of a prior label's Beta law: (1, 1) for uniform-grid.

    Raises ConfigError unless a and b are finite and positive and a
    `beta(a,b)` label has a finite quadrature rule (`Prior.beta`).
    """
    if label == "uniform-grid":
        return 1.0, 1.0
    if not (label.startswith("beta(") and label.endswith(")")):
        raise ConfigError(f"config error at bayes/priors: unknown prior label {label!r}")
    try:
        a, b = (float(v) for v in label[5:-1].split(","))
    except ValueError as exc:
        raise ConfigError(f"config error at bayes/priors: {label!r}: {exc}") from exc
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
        raise ConfigError(f"config error at bayes/priors: {label!r}: "
                          "a and b must be finite and positive")
    try:
        Prior.beta(a, b)
    except ValueError as exc:
        raise ConfigError(f"config error at bayes/priors: {label!r}: {exc}") from exc
    return a, b


def resolve_out_dir(config: dict, cli_out=None) -> Path:
    """--out beats RADONLIK_OUT beats the config value."""
    if cli_out is not None:
        return Path(cli_out)
    env = os.environ.get("RADONLIK_OUT")
    if env:
        return Path(env)
    return Path(config["out"])


def grid_from_spec(spec: dict) -> tuple:
    import numpy as np
    return tuple(float(x) for x in np.linspace(spec["start"], spec["stop"], spec["count"]))
