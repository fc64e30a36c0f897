"""Deterministic artifact emission: CSV/JSON writers, SVG heatmap, manifest.

Floats are serialized with shortest round-trip repr, so recomputing measures
from an emitted matrix reproduces them bit-exactly.  Every run writes a
manifest echoing the resolved configuration, per-stage wall-clock and peak
RSS, and a sha256 digest of each output file.  Every output is written
through ``output``, so a failed write names its file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IngestError


def _code_digest() -> str:
    """sha256 over this package's source files, for run provenance."""
    h = hashlib.sha256()
    root = Path(__file__).parent
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def output(path: str | Path, mode: str = "w", **kwargs):
    """``open(path, mode, **kwargs)`` for writing; an ``OSError`` that names no
    file, as a write past the file-size limit raises, is raised naming ``path``."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise type(exc)(exc.errno, exc.strerror, str(path)) from exc


def write_json(path: str | Path, payload) -> None:
    with output(path, encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str | Path, rows) -> None:
    """One line per row, each ending in a bare newline; a field holding a
    comma, a quote or a line break is quoted."""
    with output(path, encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_matrix_csv(path: str | Path, r: np.ndarray, labels: list[str]) -> None:
    """Rows are trained-through tasks, columns evaluated tasks."""
    if len(labels) != r.shape[0]:
        raise ValueError("label count does not match matrix size")
    write_csv(path, [["trained_through", *labels],
                     *([label, *(repr(float(x)) for x in row)] for label, row in zip(labels, r))])


def read_matrix_csv(path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Inverse of ``write_matrix_csv``; a file that is not a square matrix
    of finite numbers raises ``IngestError`` naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            lines = [line for line in csv.reader(fh) if line]
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8: {exc}") from exc
    except csv.Error as exc:
        raise IngestError(f"{path}: {exc}") from exc
    if not lines:
        raise IngestError(f"{path}: empty matrix file")
    labels = lines[0][1:]
    rows = [line[1:] for line in lines[1:]]
    widths = [len(row) for row in rows]
    if not labels or widths != [len(labels)] * len(labels):
        raise IngestError(f"{path}: matrix is not square: {len(labels)} labels, row widths {widths}")
    try:
        r = np.array([[float(x) for x in row] for row in rows], dtype=np.float64)
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    if not np.isfinite(r).all():
        raise IngestError(f"{path}: a cell is not a finite number")
    return r, labels


def write_histogram_csv(path: str | Path, hist: list[tuple[int, int]]) -> None:
    write_csv(path, [("value", "count"), *hist])


def _heat_color(value: float) -> str:
    """Dark blue (0.0) to warm yellow (1.0)."""
    v = min(max(float(value), 0.0), 1.0)
    r = int(40 + 215 * v)
    g = int(40 + 180 * v)
    b = int(90 + 40 * (1.0 - v))
    return f"#{r:02x}{g:02x}{b:02x}"


def _xml_text(text: str) -> str:
    """``text`` escaped for an XML text node.  ``xml.sax.saxutils.escape`` does
    the same, but importing it pulls in ``urllib.request`` (about 30 ms)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def svg_heatmap(r: np.ndarray, labels: list[str], title: str = "") -> str:
    """Self-contained SVG accuracy heatmap; cell text is the value to 2 decimals,
    and the labels and title are escaped as XML text."""
    t = r.shape[0]
    labels, title = [_xml_text(lab) for lab in labels], _xml_text(title)
    cell, margin = 64, 110
    width = margin + t * cell + 20
    height = margin + t * cell + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{margin}" y="24" font-size="14">{title}</text>' if title else "",
        f'<text x="8" y="{margin - 30}" font-size="11">rows: trained through / cols: evaluated on</text>',
    ]
    for j, lab in enumerate(labels):
        parts.append(
            f'<text x="{margin + j * cell + cell // 2}" y="{margin - 8}" text-anchor="middle">{lab}</text>'
        )
    for i in range(t):
        parts.append(
            f'<text x="{margin - 8}" y="{margin + i * cell + cell // 2 + 4}" text-anchor="end">{labels[i]}</text>'
        )
        for j in range(t):
            x, y = margin + j * cell, margin + i * cell
            value = float(r[i, j])
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{_heat_color(value)}" stroke="#ffffff"/>'
            )
            parts.append(
                f'<text x="{x + cell // 2}" y="{y + cell // 2 + 4}" text-anchor="middle">'
                f"{value:.2f}</text>"
            )
    parts.append("</svg>")
    return "\n".join(p for p in parts if p)


def _peak_rss_kb() -> int:
    """This process's peak resident set in KiB: ``VmHWM`` of /proc/self/status
    where it exists, which starts afresh in every program, else ``ru_maxrss``,
    which Linux carries over from the process that started this one."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Manifest:
    """Collects stage timings and output digests for one run."""

    def __init__(self, command: str, config: dict):
        self.data = {
            "command": command,
            "config": config,
            "format": 1,
            "version": __version__,
            "code_digest": _code_digest(),
            "stages": {},
            "outputs": {},
        }

    @contextmanager
    def stage(self, name: str):
        """Record the stage's wall time and memory.  ``peak_rss_kb`` is the
        process's peak resident set (``_peak_rss_kb``) when the stage ends, so
        it includes every earlier stage; ``rss_growth_kb`` is how far this
        stage raised that peak, 0 when it stayed under an earlier one."""
        start = time.perf_counter()
        peak_before = _peak_rss_kb()
        try:
            yield
        finally:
            peak = _peak_rss_kb()
            self.data["stages"][name] = {
                "wall_seconds": time.perf_counter() - start,
                "peak_rss_kb": peak,
                "rss_growth_kb": peak - peak_before,
            }

    def record_output(self, path: str | Path) -> None:
        self.data["outputs"][Path(path).name] = sha256_file(path)

    def write(self, out_dir: str | Path) -> Path:
        path = Path(out_dir) / "manifest.json"
        write_json(path, self.data)
        return path
