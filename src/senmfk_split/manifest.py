"""Run manifests: the reproducibility record the CLI writes per workspace.

A manifest holds the tool version and one record per stage: the settings
the stage ran with, by their flag names, the digests of its inputs and
outputs, and its wall-clock time.  It both
documents how to reproduce a run and lets a rerun skip stages whose
parameters, inputs, and outputs all still match on disk.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from .errors import DataError
from .fileio import atomic_path


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class StageRecord:
    params: dict[str, Any]
    inputs: dict[str, str]
    outputs: dict[str, str]
    seconds: float
    resumed: bool = False


@dataclass
class RunManifest:
    version: str
    stages: dict[str, StageRecord] = field(default_factory=dict)

    def record(
        self,
        name: str,
        params: dict[str, Any],
        inputs: dict[str, str],
        outputs: dict[str, str],
        seconds: float,
        resumed: bool = False,
    ) -> None:
        self.stages[name] = StageRecord(
            params=params,
            inputs=inputs,
            outputs=outputs,
            seconds=round(seconds, 6),
            resumed=resumed,
        )

    def can_skip(
        self,
        name: str,
        params: dict[str, Any],
        inputs: dict[str, str],
        outputs: tuple[str, ...],
        workspace: Path,
    ) -> bool:
        """True when the recorded stage ran with identical parameters and
        inputs, its record names exactly the files ``outputs`` (the stage's
        declared outputs), and each of them still matches its digest."""
        rec = self.stages.get(name)
        if rec is None or rec.params != params or rec.inputs != inputs:
            return False
        if sorted(rec.outputs) != sorted(outputs):
            return False
        for fname, digest in rec.outputs.items():
            path = workspace / fname
            if not path.is_file() or sha256_file(path) != digest:
                return False
        return True

    def save(self, path: str | Path) -> None:
        """Write to a temporary file beside ``path``, then rename it into
        place, so a crash mid-save leaves the previous manifest whole."""
        with atomic_path(path) as tmp:
            tmp.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n", "utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """Raises DataError when the file is not a manifest, or when a stage
        record's ``params``, ``inputs`` or ``outputs`` is not an object, a
        digest not a string, ``seconds`` not a number or ``resumed`` not a
        bool.  The ``config`` and ``input_digests`` of a manifest written
        before the settings moved into the stage records are dropped; a
        record that names its settings the old way then matches no run, so
        its stage reruns once."""
        try:
            payload = json.loads(Path(path).read_text("utf-8"))
            for retired in ("config", "input_digests"):
                payload.pop(retired, None)
            stages = payload.pop("stages", {})
            manifest = cls(**payload, stages={name: StageRecord(**rec) for name, rec in stages.items()})
        except (ValueError, TypeError, AttributeError) as exc:
            raise DataError(f"{path}: not a valid manifest: {exc!r}") from exc
        # a JSON value has one exact type, so true is neither a number nor a digest
        for name, rec in manifest.stages.items():
            if (
                any(type(part) is not dict for part in (rec.params, rec.inputs, rec.outputs))
                or any(type(d) is not str for d in [*rec.inputs.values(), *rec.outputs.values()])
                or type(rec.seconds) not in (int, float)
                or type(rec.resumed) is not bool
            ):
                raise DataError(f"{path}: not a valid manifest: a mistyped value in stage {name!r}")
        return manifest
