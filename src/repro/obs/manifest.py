"""Run-manifests: the provenance record every experiment run emits.

A result file without its provenance is not a result.  The manifest is a
single JSON document written next to an experiment's outputs that pins
*everything needed to reproduce or audit the run*:

* the experiment name and when it ran,
* the full :class:`~repro.experiments.config.ExperimentConfig` (seed,
  mode, execution policy, telemetry flag),
* the datasets touched (when the runner reports them),
* an environment fingerprint (python / numpy / scipy versions, platform,
  CPU count, every ``REPRO_*`` env var),
* a metric snapshot from the process-wide registry (empty when telemetry
  was off — the manifest is still written, the run still auditable).

Schema stability: ``schema`` carries a version string; consumers should
reject unknown majors.  :func:`validate_run_manifest` is the in-repo
well-formedness check the test suite (and CI) run against every emitted
manifest.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .._util import atomic_write_text
from .metrics import OBS, MetricsRegistry

__all__ = [
    "MANIFEST_SCHEMA",
    "build_run_manifest",
    "environment_fingerprint",
    "validate_run_manifest",
    "write_run_manifest",
]

MANIFEST_SCHEMA = "repro.obs.run-manifest/v1"

#: Keys every well-formed manifest must carry (see validate_run_manifest).
_REQUIRED_KEYS = (
    "schema",
    "experiment",
    "created_unix",
    "created_iso",
    "seed",
    "config",
    "datasets",
    "environment",
    "metrics",
)

_REQUIRED_ENVIRONMENT_KEYS = ("python", "platform", "cpu_count", "packages")


def environment_fingerprint() -> dict:
    """Where (and with what) this process is running.

    Versions are read lazily so importing :mod:`repro.obs` never drags in
    scipy; missing packages are reported as ``None`` rather than raising
    (the manifest must be writable from any partial environment).
    """
    packages = {}
    for name in ("numpy", "scipy"):
        try:
            module = __import__(name)
            packages[name] = getattr(module, "__version__", None)
        except ImportError:  # pragma: no cover - both ship with the package
            packages[name] = None
    try:
        from .. import __version__ as repro_version
    except ImportError:  # pragma: no cover - broken partial install
        repro_version = None
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "pid": os.getpid(),
        "repro_version": repro_version,
        "packages": packages,
        "env": {
            key: os.environ[key]
            for key in sorted(os.environ)
            if key.startswith("REPRO_")
        },
    }


def _config_payload(config) -> Optional[dict]:
    """Render a config (dataclass or mapping) into plain JSON types."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        raw = dataclasses.asdict(config)
    elif isinstance(config, Mapping):
        raw = dict(config)
    else:
        raise TypeError(
            f"config must be a dataclass instance or mapping, got {type(config).__name__}"
        )
    return {key: _jsonable(value) for key, value in raw.items()}


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)  # numpy scalars
    if callable(item) and not isinstance(value, (str, bytes)):
        try:
            return item()
        except Exception:  # pragma: no cover - exotic .item()
            pass
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def build_run_manifest(
    experiment: str,
    *,
    config=None,
    seed: Optional[int] = None,
    datasets: Sequence[str] = (),
    registry: Optional[MetricsRegistry] = None,
    extra: Optional[Mapping] = None,
) -> dict:
    """Assemble the manifest dict (no I/O).

    ``seed`` defaults to ``config.seed`` when the config carries one;
    ``registry`` defaults to the process-wide :data:`~repro.obs.OBS`
    (its snapshot is embedded even when telemetry is off, so consumers
    can distinguish "off" from "no metrics happened").
    """
    registry = OBS if registry is None else registry
    config_payload = _config_payload(config)
    if seed is None and config_payload is not None:
        seed = config_payload.get("seed")
    now = time.time()
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "experiment": str(experiment),
        "created_unix": now,
        "created_iso": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        "seed": seed,
        "config": config_payload,
        "datasets": sorted(str(d) for d in datasets),
        "environment": environment_fingerprint(),
        "metrics": registry.snapshot(),
    }
    if extra:
        manifest["extra"] = {str(k): _jsonable(v) for k, v in dict(extra).items()}
    return manifest


def validate_run_manifest(manifest: Mapping) -> dict:
    """Well-formedness gate: raise ``ValueError`` naming what is wrong.

    Returns the manifest (as a plain dict) on success so callers can
    chain ``validate_run_manifest(json.load(fh))``.
    """
    if not isinstance(manifest, Mapping):
        raise ValueError(f"manifest must be a mapping, got {type(manifest).__name__}")
    missing = [key for key in _REQUIRED_KEYS if key not in manifest]
    if missing:
        raise ValueError(f"manifest missing required keys: {', '.join(missing)}")
    if manifest["schema"] != MANIFEST_SCHEMA:
        raise ValueError(
            f"unknown manifest schema {manifest['schema']!r} (expected {MANIFEST_SCHEMA!r})"
        )
    environment = manifest["environment"]
    if not isinstance(environment, Mapping):
        raise ValueError("manifest environment must be a mapping")
    env_missing = [key for key in _REQUIRED_ENVIRONMENT_KEYS if key not in environment]
    if env_missing:
        raise ValueError(
            f"manifest environment missing keys: {', '.join(env_missing)}"
        )
    metrics = manifest["metrics"]
    if not isinstance(metrics, Mapping) or "counters" not in metrics:
        raise ValueError("manifest metrics must be a registry snapshot")
    return dict(manifest)


def write_run_manifest(
    path,
    experiment: str,
    *,
    config=None,
    seed: Optional[int] = None,
    datasets: Sequence[str] = (),
    registry: Optional[MetricsRegistry] = None,
    extra: Optional[Mapping] = None,
) -> dict:
    """Build, validate and write a manifest; returns the dict written."""
    manifest = validate_run_manifest(
        build_run_manifest(
            experiment,
            config=config,
            seed=seed,
            datasets=datasets,
            registry=registry,
            extra=extra,
        )
    )
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    # Atomic write: a runner crashing mid-dump must never leave a
    # truncated manifest behind (pinned by the harness fault-injection
    # tests) — readers see the whole file or no file.
    atomic_write_text(target, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
