"""Cinema-style image database.

The paper's in-situ pipeline writes its output through *ParaView Cinema*
(Ahrens et al., SC'14): instead of raw fields, a database of pre-rendered
images parameterized by (time, camera, ...) is committed to disk, orders of
magnitude smaller than the raw data.

:class:`CinemaDatabase` implements the same artifact: a directory of PNG
files plus a JSON index (``info.json``) mapping parameter tuples to files.
It can also run *unbacked* (no directory), accounting sizes only — that mode
backs the simulated platform, where the byte counts are what matters, and
never loads the PNG codec of :mod:`repro.viz.image`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from repro.errors import ConfigurationError, PipelineError

if TYPE_CHECKING:  # pragma: no cover
    from repro.viz.image import Image

__all__ = ["CinemaDatabase", "CinemaEntry"]

_INDEX_NAME = "info.json"


@dataclass(frozen=True)
class CinemaEntry:
    """One image in the database."""

    parameters: tuple[tuple[str, object], ...]
    filename: str
    nbytes: int

    def parameter_dict(self) -> dict[str, object]:
        """Parameters as a dict."""
        return dict(self.parameters)


class CinemaDatabase:
    """An image database parameterized by arbitrary key/value coordinates."""

    def __init__(self, directory: Optional[str] = None, name: str = "cinema") -> None:
        self.name = name
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._entries: list[CinemaEntry] = []
        self._closed = False

    # ----------------------------------------------------------------- write

    @staticmethod
    def _key(parameters: Mapping[str, object]) -> tuple[tuple[str, object], ...]:
        if not parameters:
            raise ConfigurationError("a Cinema entry needs at least one parameter")
        return tuple(sorted(parameters.items()))

    def _filename(self, parameters: Mapping[str, object]) -> str:
        parts = [f"{k}={v}" for k, v in sorted(parameters.items())]
        return "_".join(parts).replace("/", "-").replace(" ", "") + ".png"

    def add_image(self, parameters: Mapping[str, object], image: Image) -> CinemaEntry:
        """Render ``image`` into the database under ``parameters``.

        Encodes to real PNG bytes; writes the file when the database is
        directory-backed.
        """
        if self._closed:
            raise PipelineError("add_image() on a closed Cinema database")
        key = self._key(parameters)
        if any(e.parameters == key for e in self._entries):
            raise ConfigurationError(f"duplicate Cinema entry for {dict(key)!r}")
        data = image.encode_png()
        filename = self._filename(parameters)
        if self.directory is not None:
            with open(os.path.join(self.directory, filename), "wb") as fh:
                fh.write(data)
        entry = CinemaEntry(parameters=key, filename=filename, nbytes=len(data))
        self._entries.append(entry)
        return entry

    def add_accounted(self, parameters: Mapping[str, object], nbytes: int) -> CinemaEntry:
        """Account an image of ``nbytes`` without rendering (simulated mode)."""
        if self._closed:
            raise PipelineError("add_accounted() on a closed Cinema database")
        if nbytes < 0:
            raise ConfigurationError(f"negative image size: {nbytes}")
        key = self._key(parameters)
        entry = CinemaEntry(parameters=key, filename=self._filename(parameters), nbytes=int(nbytes))
        self._entries.append(entry)
        return entry

    def close(self) -> None:
        """Write the JSON index (if backed) and seal the database."""
        if self._closed:
            return
        if self.directory is not None:
            index = {
                "type": "cinema-database",
                "name": self.name,
                "entries": [
                    {
                        "parameters": {str(k): v for k, v in e.parameters},
                        "file": e.filename,
                        "bytes": e.nbytes,
                    }
                    for e in self._entries
                ],
            }
            with open(os.path.join(self.directory, _INDEX_NAME), "w") as fh:
                json.dump(index, fh, indent=1, default=str)
        self._closed = True

    # ----------------------------------------------------------------- read

    @classmethod
    def open(cls, directory: str) -> "CinemaDatabase":
        """Load an existing directory-backed database via its index."""
        path = os.path.join(directory, _INDEX_NAME)
        if not os.path.exists(path):
            raise PipelineError(f"no Cinema index at {path!r}")
        with open(path) as fh:
            index = json.load(fh)
        db = cls(directory=None, name=index.get("name", "cinema"))
        db.directory = directory  # already-populated directory; do not mkdir
        for rec in index["entries"]:
            db._entries.append(
                CinemaEntry(
                    parameters=tuple(sorted(rec["parameters"].items())),
                    filename=rec["file"],
                    nbytes=int(rec["bytes"]),
                )
            )
        db._closed = True
        return db

    def load_image(self, parameters: Mapping[str, object]) -> Image:
        """Read back the PNG stored under ``parameters``."""
        from repro.viz.image import Image

        if self.directory is None:
            raise PipelineError("database is not directory-backed")
        key = self._key(parameters)
        for e in self._entries:
            if e.parameters == key:
                return Image.load(os.path.join(self.directory, e.filename))
        raise PipelineError(f"no entry for parameters {dict(key)!r}")

    # ------------------------------------------------------------- accounting

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CinemaEntry]:
        return iter(self._entries)

    @property
    def total_bytes(self) -> int:
        """Total encoded image bytes in the database."""
        return sum(e.nbytes for e in self._entries)

    def select(self, **criteria: object) -> list[CinemaEntry]:
        """Entries whose parameters include all of ``criteria``."""
        out = []
        for e in self._entries:
            params = e.parameter_dict()
            if all(params.get(k) == v for k, v in criteria.items()):
                out.append(e)
        return out

    def parameter_values(self, key: str) -> list[object]:
        """Sorted distinct values of one parameter across the database."""
        values = {e.parameter_dict().get(key) for e in self._entries}
        values.discard(None)
        return sorted(values, key=repr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = self.directory or "(unbacked)"
        return f"<CinemaDatabase {self.name!r} {len(self._entries)} entries @ {backing}>"
