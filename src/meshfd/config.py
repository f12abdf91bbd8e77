"""Run configuration: one JSON document drives every CLI subcommand.

`_SECTIONS` is the one statement of the format: each section's kinds and,
for each kind, every key with its default (``REQUIRED``: no default).
`resolve_config` checks every section against it once and fills in the
defaults, so the runners read checked values and the resolved config echoed
into ``report.json`` under the ``config`` key is the complete config that
ran; feeding a report back as the ``--config`` file reproduces the run.  The
table checks the shape of a section, never its values: those reach the
library as written.
"""

from __future__ import annotations

import copy
import json

from .errors import ConfigError
from .geometry import _integer
from .operators import KINDS
from .spaces import DEFAULT_TAIL_DEGREE

REQUIRED = ...  # a key the section must hold

# top-level keys that pick one of a few names: the first is the default
_CHOICES = {"mode": ("collocate", "lsq"), "route": ("exactness", "lagrange"), "uncovered": ("error", "constant-patch")}
_DEFAULTS = {"seed": 0, "centers": "all", **{key: choices[0] for key, choices in _CHOICES.items()}}

# section: (its default, None when a subcommand that reads it needs it; {kind: {key: default}}).
# A given section overlays its default, so a default's kind is also the kind of a section that
# names none; a kind-less section has the one kind None, and a key whose default is itself a
# (default, kinds) pair is a nested section.  A null ``bounds`` is the unit box for nodes and
# the nodes' bounding box for an evaluation or collocation grid.
_SECTIONS = {
    "nodes": (None, {
        "grid": {"d": REQUIRED, "n_per_axis": REQUIRED, "bounds": None},
        "scattered": {"d": REQUIRED, "count": REQUIRED, "bounds": None, "source": "halton",
                      "boundary_per_side": None},
        "file": {"path": REQUIRED},
    }),
    "space": (None, {
        "poly": {"degree": REQUIRED, "sublist": None},
        "gauss": {"shape": REQUIRED, "augmentation_degree": DEFAULT_TAIL_DEGREE},
        "polyharmonic": {"exponent": REQUIRED, "augmentation_degree": DEFAULT_TAIL_DEGREE},
    }),
    "selector": (None, {"knn": {"k": REQUIRED}, "range": {"radius": REQUIRED}}),
    "operator": (None, {kind: {} for kind in KINDS if kind != "general-second-order"}),  # a general one is library-only
    "problem": (None, {None: {"preset": REQUIRED}}),
    "strategy": ({"kind": "same-index"}, {"same-index": {}, "per-set-aggregate": {}, "nearest-node": {
        "collocation": ({"kind": "nodes"}, {
            "nodes": {}, "grid": {"n_per_axis": REQUIRED, "bounds": None}, "points": {"points": REQUIRED},
        }),
    }}),
    "stencil": (None, {None: {"y": REQUIRED}}),  # a bare number is a 1-D point
    "levels": (None, {None: {"n_per_axis": None, "count": None}}),  # exactly one of them
    "eval": ({"kind": "grid"}, {"grid": {"n_per_axis": 11, "bounds": None}}),
    "values": ({"kind": "exact"}, {"exact": {}, "file": {"path": REQUIRED}}),
    "outputs": ({}, {None: {  # file names
        "nodes": "nodes.csv", "solution": "solution.csv", "report": "report.json", "stencil": "stencil.json",
        "dim": "dim.json", "table": "convergence.csv", "pum": "pum.csv",
    }}),
}


def load_config(path) -> dict:
    """Read a config file; a previously written report is accepted as-is."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if "config" in doc and isinstance(doc["config"], dict) and "results" in doc:
        return doc["config"]
    return doc


def _section(name: str, spec, default, kinds: dict):
    """``spec`` checked against its kinds with every default filled in; None for a left-out section without a default."""
    if spec is None and default is None:
        return None
    if not isinstance(spec, (dict, type(None))):
        raise ConfigError(f"the {name!r} section must be a JSON object or null, got {spec!r}")
    spec = {**copy.deepcopy(default or {}), **(spec or {})}
    keys = kinds.get(None)
    if keys is None:
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{name} kind must be one of {tuple(kinds)}, got {kind!r}")
        keys = {"kind": kind, **kinds[kind]}
    unknown = sorted(set(spec) - set(keys))
    missing = sorted(key for key, value in keys.items() if value is REQUIRED and key not in spec)
    if unknown or missing:
        of_kind = "" if None in kinds else f" of kind {spec['kind']!r}"
        raise ConfigError(f"the {name!r} section{of_kind} takes the keys {sorted(keys)}"
                          + (f", got unknown {unknown}" if unknown else f", misses {missing}"))
    for key, value in keys.items():
        if isinstance(value, tuple):
            spec[key] = _section(f"{name}.{key}", spec.get(key), *value)
        elif key not in spec:
            spec[key] = copy.deepcopy(value)
    return spec


def resolve_config(raw: dict, seed=None) -> dict:
    """Check every section against `_SECTIONS`, materialize defaults and apply command-line overrides."""
    unknown = sorted(set(raw) - set(_DEFAULTS) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    cfg = {**_DEFAULTS, **copy.deepcopy(raw)}
    if seed is not None:
        cfg["seed"] = seed
    cfg["seed"] = _integer(cfg["seed"], "seed must be an integer")
    for name, (default, kinds) in _SECTIONS.items():
        cfg[name] = _section(name, cfg.get(name), default, kinds)
    levels = cfg["levels"]
    if levels is not None and (levels["n_per_axis"] is None) == (levels["count"] is None):
        raise ConfigError(f"the 'levels' section takes one of 'n_per_axis' and 'count', got {levels!r}")
    if not all(isinstance(name, str) for name in cfg["outputs"].values()):
        raise ConfigError(f"outputs must be file names, got {cfg['outputs']!r}")
    for key, choices in _CHOICES.items():
        if cfg[key] not in choices:
            raise ConfigError(f"{key} must be {' or '.join(map(repr, choices))}")
    return cfg
