"""Run configuration: one JSON document drives every CLI subcommand.

The resolved configuration (defaults materialized) is echoed into
``report.json`` under the ``config`` key; feeding a report back as the
``--config`` file reproduces the run.  Schema, with per-subcommand parts
optional:

    {
      "seed": 0,
      "nodes": {"kind": "grid", "d": 2, "n_per_axis": 9, "bounds": [[0,1],[0,1]]}
               | {"kind": "scattered", "d": 2, "count": 100, "bounds": ...,
                  "source": "halton" | "random", "boundary_per_side": null}
               | {"kind": "file", "path": "nodes.csv"},
      "space": {"kind": "poly", "degree": 2, "sublist": null}
               | {"kind": "gauss", "shape": 1.0, "augmentation_degree": "minimal"}
               | {"kind": "polyharmonic", "exponent": 3.0, "augmentation_degree": "minimal"},
      "selector": {"kind": "knn", "k": 9} | {"kind": "range", "radius": 0.3},
      "centers": "all" | "interior" | [node indices],
      "uncovered": "error" | "constant-patch",
      "operator": {"kind": "identity" | "laplacian" | "second-derivative-1d"},
      "problem": {"preset": "bvp1d" | "poisson2d", "bounds": ...},
      "strategy": {"kind": "same-index"}
                  | {"kind": "per-set-aggregate"}
                  | {"kind": "nearest-node", "collocation": {"kind": "nodes"}
                     | {"kind": "grid", "n_per_axis": 9} | {"kind": "points", "points": [...]}},
      "mode": "collocate" | "lsq",
      "route": "exactness" | "lagrange",
      "stencil": {"y": [0.5, 0.5]},                       # stencil subcommand
      "levels": {"n_per_axis": [9, 17, 33]} | {"count": [100, 200, 400]},  # converge
      "eval": {"kind": "grid", "n_per_axis": 21, "bounds": null},          # pum-eval
      "values": {"kind": "exact"} | {"kind": "file", "path": "values.csv"},
      "outputs": {"nodes": "nodes.csv", "solution": "solution.csv", ...}
    }
"""

from __future__ import annotations

import copy
import json

from .errors import ConfigError

DEFAULT_OUTPUTS = {
    "nodes": "nodes.csv",
    "solution": "solution.csv",
    "report": "report.json",
    "stencil": "stencil.json",
    "dim": "dim.json",
    "table": "convergence.csv",
    "pum": "pum.csv",
}

_DEFAULTS = {
    "seed": 0,
    "nodes": None,
    "space": None,
    "selector": None,
    "centers": "all",
    "uncovered": "error",
    "operator": None,
    "problem": None,
    "strategy": {"kind": "same-index"},
    "mode": "collocate",
    "route": "exactness",
    "stencil": None,
    "levels": None,
    "eval": None,
    "values": {"kind": "exact"},
    "outputs": None,
}

_SPACE_KINDS = ("poly", "gauss", "polyharmonic")


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


def resolve_config(raw: dict, seed=None) -> dict:
    """Materialize defaults and apply command-line overrides."""
    unknown = sorted(set(raw) - set(_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    cfg = copy.deepcopy(_DEFAULTS)
    cfg.update(copy.deepcopy(raw))
    if seed is not None:
        cfg["seed"] = int(seed)
    cfg["seed"] = int(cfg["seed"])

    outputs = dict(DEFAULT_OUTPUTS)
    outputs.update(cfg.get("outputs") or {})
    cfg["outputs"] = outputs

    space = cfg.get("space")
    if space is not None:
        if space.get("kind") not in _SPACE_KINDS:
            raise ConfigError(f"space kind must be one of {_SPACE_KINDS}")
        if space["kind"] in ("gauss", "polyharmonic"):
            space.setdefault("augmentation_degree", "minimal")
        else:
            space.setdefault("sublist", None)

    if cfg["mode"] not in ("collocate", "lsq"):
        raise ConfigError("mode must be 'collocate' or 'lsq'")
    if cfg["route"] not in ("exactness", "lagrange"):
        raise ConfigError("route must be 'exactness' or 'lagrange'")
    if cfg["uncovered"] not in ("error", "constant-patch"):
        raise ConfigError("uncovered must be 'error' or 'constant-patch'")
    return cfg
