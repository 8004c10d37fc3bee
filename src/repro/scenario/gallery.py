"""The template gallery: validate shipped scenarios and gate on hash drift.

``scenarios/`` holds the curated templates (paper grid, CI smoke config,
in-transit sweep, MTBF campaign, power-cap stress) plus a committed digest
manifest (``TEMPLATES.json``).  :func:`check_gallery` re-validates every
template and compares content digests against the manifest, so CI fails
when a template edit forgets to refresh the manifest — digest drift means
every cached result keyed on that scenario silently went stale.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.errors import ScenarioError
from repro.scenario.loader import load_scenario
from repro.scenario.schema import SCENARIO_SCHEMA_VERSION, Scenario

__all__ = [
    "DEFAULT_GALLERY_DIR",
    "DEFAULT_MANIFEST",
    "gallery_paths",
    "load_gallery",
    "check_gallery",
    "write_manifest",
]

DEFAULT_GALLERY_DIR = "scenarios"
DEFAULT_MANIFEST = os.path.join("scenarios", "TEMPLATES.json")

_SCENARIO_SUFFIXES = (".yaml", ".yml", ".json")


def gallery_paths(directory: str = DEFAULT_GALLERY_DIR) -> List[str]:
    """Template files in the gallery, sorted by name."""
    if not os.path.isdir(directory):
        raise ScenarioError("", f"no such gallery directory: {directory}")
    return sorted(
        os.path.join(directory, entry)
        for entry in os.listdir(directory)
        if entry.endswith(_SCENARIO_SUFFIXES)
        and entry != os.path.basename(DEFAULT_MANIFEST)
    )


def load_gallery(
    directory: str = DEFAULT_GALLERY_DIR,
) -> List[Tuple[str, Scenario]]:
    """Parse every template; raises :class:`ScenarioError` on the first bad one."""
    return [(path, load_scenario(path)) for path in gallery_paths(directory)]


def _manifest_payload(templates: List[Tuple[str, Scenario]]) -> dict:
    return {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "templates": {
            os.path.basename(path): scenario.content_digest()
            for path, scenario in templates
        },
    }


def write_manifest(
    directory: str = DEFAULT_GALLERY_DIR,
    manifest_path: str = DEFAULT_MANIFEST,
) -> dict:
    """Validate the gallery and (re)write the committed digest manifest."""
    payload = _manifest_payload(load_gallery(directory))
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def check_gallery(
    directory: str = DEFAULT_GALLERY_DIR,
    manifest_path: Optional[str] = DEFAULT_MANIFEST,
) -> List[str]:
    """Validate every template and diff digests against the manifest.

    Returns a list of problems (empty = the gallery is healthy).  Schema
    violations surface as :class:`ScenarioError` from the loader instead —
    a malformed template is a hard error, not a drift report.
    """
    templates = load_gallery(directory)
    problems: List[str] = []
    if manifest_path is None:
        return problems
    if not os.path.exists(manifest_path):
        problems.append(
            f"missing digest manifest {manifest_path} "
            "(run `repro scenario gallery --update`)"
        )
        return problems
    with open(manifest_path, "r", encoding="utf-8") as fh:
        committed = json.load(fh)
    recorded = committed.get("templates", {})
    current = _manifest_payload(templates)["templates"]
    for name in sorted(set(recorded) | set(current)):
        if name not in current:
            problems.append(
                f"{name}: recorded in {manifest_path} but missing from "
                f"{directory}/"
            )
        elif name not in recorded:
            problems.append(
                f"{name}: present in {directory}/ but not recorded in "
                f"{manifest_path} (run `repro scenario gallery --update`)"
            )
        elif recorded[name] != current[name]:
            problems.append(
                f"{name}: content digest drifted "
                f"({recorded[name][:12]} -> {current[name][:12]}; run "
                "`repro scenario gallery --update` if the change is intended)"
            )
    return problems
