"""Telemetry exporters: JSONL event streams and Prometheus text exposition.

* :class:`JsonlWriter` — append-only newline-delimited JSON; one record per
  line, keys sorted, so streams diff cleanly across runs, and each line
  handed to the OS in one ``os.write``.  A timeline sample's fixed
  ``label``/``trace``/``type`` text is encoded once per writer; each of its
  lines formats only ``seq`` and ``t``.
* :class:`RowText` — the JSON text of successive rows of one fixed set of
  float columns, re-formatting only the values that changed.
* :func:`read_jsonl` — the matching reader (iterator of dicts).
* :func:`to_prometheus` — render a :class:`~repro.obs.registry.MetricsRegistry`
  in the Prometheus text exposition format (``# HELP`` / ``# TYPE`` headers,
  labelled samples, cumulative histogram buckets).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from typing import Dict, Iterator, List, Optional, Sequence

from repro.obs.registry import DEFAULT_BUCKETS, Histogram, MetricsRegistry

__all__ = ["JsonlWriter", "RowText", "read_jsonl", "to_prometheus", "write_prometheus"]

#: The one encoder every JSON-lines record goes through (stateless per call).
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)

#: The keys of a timeline sample, whose lines :meth:`JsonlWriter.write`
#: lays out itself.
_SAMPLE_KEYS = frozenset(("label", "seq", "t", "trace", "type", "values"))


class JsonlWriter:
    """Append-only JSON-lines stream with deterministic key order.

    Each record reaches the OS whole, as one ``os.write`` of its complete
    line on an unbuffered descriptor (a short write is continued), the way
    :func:`repro.atomicio.append_jsonl_line` appends journal records.  No
    record waits in a buffer, so a process that dies abruptly leaves every
    record it wrote and at most a torn *final* line, exactly the damage
    :func:`read_jsonl` tolerates.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fd: Optional[int] = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        #: The last sample's ``(label, trace, type)`` and the line text
        #: before its ``seq`` and after its ``t``.
        self._sample_head: Optional[tuple] = None
        self._sample_text = ("", "")

    def write(self, record: dict, values_json: Optional[str] = None) -> None:
        """Serialize one record onto its own line, written whole.

        ``values_json``, when given, is the already-encoded text of
        ``record["values"]`` (see :class:`RowText`); the line is the same
        as without it.
        """
        fd = self._fd
        if fd is None:
            raise ValueError(f"writer for {self.path!r} is closed")
        if values_json is None:
            line = _ENCODER.encode(record) + "\n"
        else:
            line = self._line(record, values_json)
        data = line.encode()
        written = os.write(fd, data)
        while written < len(data):
            data = data[written:]
            written = os.write(fd, data)

    def _line(self, record: dict, values_json: str) -> str:
        # The record's line, newline included.  A timeline sample (text
        # label/trace/type, an int seq, a float or int t) is laid out here,
        # encoding its fixed text only when it differs from the previous
        # sample's; any other record goes through the encoder whole.
        seq, t = record.get("seq"), record.get("t")
        if record.keys() == _SAMPLE_KEYS and type(seq) is int and type(t) in (float, int):
            head = (record["label"], record["trace"], record["type"])
            if head != self._sample_head and all(type(text) is str for text in head):
                label, trace, kind = (_ENCODER.encode(text) for text in head)
                self._sample_head = head
                self._sample_text = (
                    f'{{"label": {label}, "seq": ',
                    f', "trace": {trace}, "type": {kind}, "values": ',
                )
            if head == self._sample_head:
                before, after = self._sample_text
                t_text = repr(t) if type(t) is int or math.isfinite(t) else _ENCODER.encode(t)
                return f'{before}{seq!r}, "t": {t_text}{after}{values_json}}}\n'
        return _ENCODER.encode(record) + "\n"

    def close(self) -> None:
        """Close the stream (idempotent)."""
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class RowText:
    """The JSON text of ``dict(zip(names, row))`` for successive float rows.

    :meth:`render` returns exactly what the shared encoder writes for that
    dict, but encodes each key once and keeps each column's last value and
    text: a column is re-formatted only when its value changed or a zero
    flipped its sign (``-0.0 == 0.0``; NaN never equals itself, so it is
    always re-formatted), and only among the columns the caller says may
    have moved.
    """

    __slots__ = ("_keys", "_last", "_text")

    def __init__(self, names: Sequence[str]) -> None:
        # The encoder writes keys sorted, so the columns must come that way.
        if list(names) != sorted(set(names)):
            raise ValueError("RowText needs distinct names in sorted order")
        self._keys = [_ENCODER.encode(name) + ": " for name in names]
        self._last: List[Optional[float]] = [None] * len(names)
        self._text = [""] * len(names)

    def render(self, row: Sequence[float], columns: Optional[Sequence[int]] = None) -> str:
        """The JSON text of ``dict(zip(names, row))``.

        ``columns``, when given, are the only columns whose values may
        differ from the last render's; every other column keeps its text.
        """
        last, text, keys = self._last, self._text, self._keys
        for i in range(len(row)) if columns is None else columns:
            value = row[i]
            # -0.0 == 0.0, so a zero keeps its text only while its sign holds.
            if value != last[i] or (
                value == 0.0 and math.copysign(1.0, value) != math.copysign(1.0, last[i])
            ):
                last[i] = value
                text[i] = keys[i] + (
                    repr(value) if math.isfinite(value) else _ENCODER.encode(value)
                )
        return "{" + ", ".join(text) + "}"


def read_jsonl(path: str) -> Iterator[dict]:
    """Yield the records of a JSON-lines file, skipping blank lines.

    A malformed *final* line — the signature of a crash or power loss while
    a record was mid-write — is tolerated: it is dropped with a warning and
    a ``repro_obs_truncated_records_total`` count instead of killing the
    whole read.  Corruption anywhere else still raises, since that means
    the stream is damaged, not merely cut short.
    """
    from repro import obs

    with open(path, "r", encoding="utf-8") as fh:
        pending: Optional[str] = None
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if pending is not None:
                yield json.loads(pending)
            pending = line
        if pending is not None:
            try:
                yield json.loads(pending)
            except ValueError:
                warnings.warn(
                    f"dropping truncated final record in {path!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                obs.counter("repro_obs_truncated_records_total", file=path)


def _escape_label_value(value: str) -> str:
    # Order matters: escape the escape character first.
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _merge_labels(labels: Dict[str, str], **extra: str) -> Dict[str, str]:
    merged = dict(labels)
    merged.update(extra)
    return merged


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        if family.kind == "histogram" and not family.series:
            # A histogram family with zero observations still exposes its
            # full zero-valued shape — buckets, _sum and _count — so a
            # scraper's rate()/delta() over the series is well-defined from
            # the first exposition onward.
            for bound in tuple(family.bounds or DEFAULT_BUCKETS):
                labelled = _render_labels({"le": f"{bound:g}"})
                lines.append(f"{family.name}_bucket{labelled} 0")
            lines.append(f'{family.name}_bucket{{le="+Inf"}} 0')
            lines.append(f"{family.name}_sum 0")
            lines.append(f"{family.name}_count 0")
        for metric in family.series.values():
            if isinstance(metric, Histogram):
                for le, cum in metric.cumulative():
                    bound = "+Inf" if le == float("inf") else f"{le:g}"
                    labelled = _render_labels(_merge_labels(metric.labels, le=bound))
                    lines.append(f"{family.name}_bucket{labelled} {cum}")
                base = _render_labels(metric.labels)
                lines.append(f"{family.name}_sum{base} {metric.sum:g}")
                lines.append(f"{family.name}_count{base} {metric.count}")
            else:
                labelled = _render_labels(metric.labels)
                lines.append(f"{family.name}{labelled} {metric.value:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path: str) -> str:
    """Write the exposition to ``path`` atomically; returns the path.

    Goes through write-to-temp + ``os.replace`` so a scraper (or a crash)
    never observes a half-written exposition.
    """
    from repro.atomicio import atomic_write_text

    atomic_write_text(path, to_prometheus(registry))
    return path
