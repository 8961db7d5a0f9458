"""The model registry: fitted ensembles published for online serving.

The paper's Section-4 proposal deploys the AutoML artifact, it does not
just evaluate it offline.  The registry is the boundary between the two
worlds: training code *registers* a fitted :class:`AutoMLClassifier`
together with everything the online loop needs precomputed — the
Within-ALE disagreement profiles and the feedback subspace region (the
paper's ``∪ᵢ Aᵢx ≤ bᵢ``) — and the serving engine *loads* one immutable,
versioned :class:`ModelBundle` by name.

Storage splits responsibilities the same way the runtime does:

- **artifacts** live in a content-addressed :class:`ArtifactCache`
  (``cache.publish``/``cache.fetch``): a bundle's key is the SHA-256 of
  its pickled bytes, so entries are immutable, deduplicated, and
  integrity-checkable;
- **names** live in a single ``manifest.json`` mapping model name →
  version → artifact key plus summary metadata, rewritten atomically
  (:func:`~repro.runtime.cache.write_atomic`: a unique temp file +
  ``os.replace``) so a crash or a concurrent writer never leaves a
  half-written manifest and readers always see a complete one.

Versions are monotonically increasing integers per name.  ``promote``
flips which version serves (recording the previous one), and
``rollback`` flips back — both are one atomic manifest rewrite, so a
bad model is un-deployed in O(1) without touching artifacts.

No wall clock and no RNG anywhere: manifests carry version counters and
content hashes, not timestamps, so registry state is a pure function of
the register/promote calls that produced it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..core.feedback import AleFeedback, FeedbackReport, within_ale_committee
from ..exceptions import RegistryError, ValidationError
from ..featurespace import FeatureDomain
from ..runtime.cache import ArtifactCache, write_atomic

__all__ = ["ModelBundle", "ModelRegistry", "default_registry_dir"]

_ENV_VAR = "REPRO_REGISTRY_DIR"

#: Manifest format version; bump when the manifest schema changes.
MANIFEST_FORMAT = 1


def default_registry_dir() -> Path:
    """``$REPRO_REGISTRY_DIR`` if set, else ``~/.cache/repro-serve``."""
    override = os.environ.get(_ENV_VAR)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-serve"


@dataclass(frozen=True)
class ModelBundle:
    """Everything one registered model version ships to the serving engine.

    ``automl`` is the fitted classifier (its ensemble members double as
    the Within-ALE committee); ``report`` carries the precomputed ALE
    disagreement profiles and the feedback subspace ``region`` the
    uncertainty monitor tests membership against.  The bundle is frozen:
    a version, once published, never changes.
    """

    name: str
    automl: Any
    domains: tuple[FeatureDomain, ...]
    report: FeedbackReport
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return len(self.domains)

    @property
    def classes(self) -> list:
        return [cls.item() if isinstance(cls, np.generic) else cls for cls in self.automl.classes_]

    def summary(self) -> dict[str, Any]:
        """The manifest-embedded description of this bundle (JSON-safe)."""
        return {
            "n_features": self.n_features,
            "feature_names": [domain.name for domain in self.domains],
            "classes": self.classes,
            "committee_size": self.report.committee_size,
            "threshold": float(self.report.threshold),
            "n_feedback_regions": len(self.report.region),
            "metadata": dict(self.metadata),
        }


class ModelRegistry:
    """Versioned, promotable model storage on a content-addressed cache.

    Parameters
    ----------
    directory:
        Registry root; holds ``manifest.json`` plus an ``artifacts/``
        cache.  ``None`` uses :func:`default_registry_dir`.
    """

    def __init__(self, directory: Path | str | None = None):
        self.directory = Path(directory) if directory is not None else default_registry_dir()
        self.cache = ArtifactCache(self.directory / "artifacts")

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    # -- manifest I/O ------------------------------------------------------

    def _read_manifest(self) -> dict[str, Any]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            return {"format": MANIFEST_FORMAT, "models": {}}
        except (OSError, json.JSONDecodeError) as error:
            raise RegistryError(f"cannot read registry manifest {self.manifest_path}: {error}") from error
        if manifest.get("format") != MANIFEST_FORMAT:
            raise RegistryError(
                f"registry manifest {self.manifest_path} has format "
                f"{manifest.get('format')!r}; this code reads format {MANIFEST_FORMAT}"
            )
        return manifest

    def _write_manifest(self, manifest: dict[str, Any]) -> None:
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        write_atomic(self.manifest_path, text.encode("utf-8"))

    def _entry(self, manifest: dict[str, Any], name: str) -> dict[str, Any]:
        entry = manifest["models"].get(name)
        if entry is None:
            known = sorted(manifest["models"])
            raise RegistryError(f"no registered model named {name!r}; registered: {known}")
        return entry

    # -- registration ------------------------------------------------------

    def register(
        self,
        name: str,
        automl,
        X,
        domains: Sequence[FeatureDomain],
        *,
        feedback: AleFeedback | None = None,
        metadata: dict[str, Any] | None = None,
        promote: bool = True,
    ) -> int:
        """Publish a fitted model as a new version of ``name``.

        Runs the Within-ALE feedback analysis over ``X`` (the training
        data the committee's ALE grids are anchored to) with ``feedback``
        (default: paper-default :class:`AleFeedback`), bundles the model
        with the resulting profiles and subspace region, publishes the
        bundle to the artifact cache, and appends a manifest version.
        With ``promote=True`` (default) the new version starts serving
        immediately; otherwise it waits for an explicit :meth:`promote`.
        Returns the new version number.
        """
        if not name or "/" in name:
            raise ValidationError(f"model names must be non-empty and '/'-free, got {name!r}")
        domains = tuple(domains)
        analyzer = feedback if feedback is not None else AleFeedback()
        report = analyzer.analyze(within_ale_committee(automl), X, domains)
        # Warm the membership fast path now: serving pays one broadcast
        # compare per batch instead of a first-request compile.
        report.region.compiled_bounds()
        bundle = ModelBundle(
            name=name,
            automl=automl,
            domains=domains,
            report=report,
            metadata=dict(metadata or {}),
        )
        key = self.cache.publish(bundle)

        manifest = self._read_manifest()
        entry = manifest["models"].setdefault(name, {"promoted": None, "previous": None, "versions": {}})
        version = 1 + max((int(v) for v in entry["versions"]), default=0)
        entry["versions"][str(version)] = {"key": key, **bundle.summary()}
        if promote:
            entry["previous"] = entry["promoted"]
            entry["promoted"] = version
        self._write_manifest(manifest)
        return version

    # -- loading -----------------------------------------------------------

    def load(self, name: str, version: int | None = None) -> ModelBundle:
        """Fetch a bundle: the promoted version by default, or an explicit one."""
        manifest = self._read_manifest()
        entry = self._entry(manifest, name)
        if version is None:
            version = entry.get("promoted")
            if version is None:
                available = sorted(map(int, entry["versions"]))
                raise RegistryError(
                    f"model {name!r} has no promoted version; "
                    f"registered versions: {available} — promote one "
                    f"(registry.promote({name!r}, v)) or load an explicit version"
                )
        info = entry["versions"].get(str(version))
        if info is None:
            raise RegistryError(
                f"model {name!r} has no version {version}; versions: {sorted(map(int, entry['versions']))}"
            )
        try:
            bundle = self.cache.fetch(info["key"])
        except KeyError as error:
            raise RegistryError(
                f"artifact for {name!r} v{version} (key {info['key'][:12]}…) is missing or "
                "corrupt; re-register the model"
            ) from error
        if not isinstance(bundle, ModelBundle):
            raise RegistryError(f"artifact for {name!r} v{version} is not a ModelBundle")
        return bundle

    def promoted_version(self, name: str) -> int | None:
        """The currently serving version of ``name`` (``None`` if none)."""
        return self._entry(self._read_manifest(), name)["promoted"]

    # -- promotion lifecycle ----------------------------------------------

    def promote(self, name: str, version: int) -> None:
        """Atomically make ``version`` the serving version of ``name``."""
        manifest = self._read_manifest()
        entry = self._entry(manifest, name)
        if str(version) not in entry["versions"]:
            raise RegistryError(
                f"cannot promote {name!r} v{version}: versions: {sorted(map(int, entry['versions']))}"
            )
        if entry["promoted"] == version:
            return  # already serving; keep "previous" meaningful
        entry["previous"] = entry["promoted"]
        entry["promoted"] = version
        self._write_manifest(manifest)

    def rollback(self, name: str) -> int:
        """Re-promote the previously serving version; returns it.

        One level deep by design: rollback is the emergency lever for "the
        model we just promoted is bad", not a version-control history.
        Rolling back again returns to the version that was just demoted.
        """
        manifest = self._read_manifest()
        entry = self._entry(manifest, name)
        previous = entry["previous"]
        if previous is None:
            raise RegistryError(f"model {name!r} has no previous version to roll back to")
        entry["previous"] = entry["promoted"]
        entry["promoted"] = previous
        self._write_manifest(manifest)
        return int(previous)

    # -- maintenance -------------------------------------------------------

    def gc(self, *, dry_run: bool = False) -> dict[str, int]:
        """Delete cache entries no manifest version references.

        Retraining churns the artifact cache: every registered candidate
        — promoted or not — publishes a bundle, and superseded ones stay
        on disk forever unless collected.  ``gc`` walks the manifest,
        gathers every referenced key, and removes the rest.  With
        ``dry_run=True`` nothing is deleted; the counts report what
        *would* go.  Returns ``{"referenced", "unreferenced", "removed",
        "bytes_freed"}``.
        """
        manifest = self._read_manifest()
        referenced = {
            info["key"]
            for entry in manifest["models"].values()
            for info in entry["versions"].values()
        }
        unreferenced = [key for key in self.cache.keys() if key not in referenced]
        removed = 0
        bytes_freed = 0
        for key in unreferenced:
            path = self.cache.path_for(key)
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            if dry_run:
                bytes_freed += size
                continue
            if self.cache.remove(key):
                removed += 1
                bytes_freed += size
        return {
            "referenced": len(referenced),
            "unreferenced": len(unreferenced),
            "removed": removed,
            "bytes_freed": bytes_freed,
        }

    # -- introspection -----------------------------------------------------

    def names(self) -> list[str]:
        """Registered model names, sorted."""
        return sorted(self._read_manifest()["models"])

    def versions(self, name: str) -> dict[int, dict[str, Any]]:
        """Version number → manifest summary for ``name``."""
        entry = self._entry(self._read_manifest(), name)
        return {int(v): dict(info) for v, info in sorted(entry["versions"].items(), key=lambda kv: int(kv[0]))}

    def describe(self) -> str:
        """Human-readable one-screen summary (the ``repro registry`` output)."""
        manifest = self._read_manifest()
        if not manifest["models"]:
            return f"registry {self.directory}: empty"
        lines = [f"registry {self.directory}:"]
        for name in sorted(manifest["models"]):
            entry = manifest["models"][name]
            promoted = entry["promoted"]
            for v, info in sorted(entry["versions"].items(), key=lambda kv: int(kv[0])):
                marker = "*" if promoted is not None and int(v) == int(promoted) else " "
                lines.append(
                    f"  {marker} {name} v{v}: {info['committee_size']} committee member(s), "
                    f"{info['n_feedback_regions']} feedback region(s), "
                    f"features {', '.join(info['feature_names'])}"
                )
        lines.append("  (* = promoted / serving)")
        return "\n".join(lines)
