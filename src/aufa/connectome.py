"""Subject time series, connectivity construction, and dataset handling.

Raw interchange format is headerless CSV: a time-series file holds T rows
of N comma-separated samples (one row per time point); a precomputed
connectivity file holds an NxN matrix in the same shape. A cell is any
string float() accepts, and blank lines are skipped; numpy's C reader gives
float()'s bits, and a file it rejects is parsed cell by cell. Datasets are
described by a JSON manifest whose file paths are resolved relative to the
manifest's directory; a large dataset's files are parsed in two processes
(`parallel.cohort_map`).
"""

from __future__ import annotations

import contextlib
import json
import warnings
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .parallel import cohort_map


class DataError(ValueError):
    """Malformed or inconsistent subject data."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeSeries:
    """Per-subject regional signals: T time points x N regions."""

    subject_id: str
    values: np.ndarray
    site_id: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DataError(f"time series must be 2-D, got shape {v.shape}")
        if v.shape[0] < 3:
            raise DataError(f"time series needs at least 3 time points, got {v.shape[0]}")
        if v.shape[1] < 2:
            raise DataError(f"time series needs at least 2 regions, got {v.shape[1]}")
        if not np.isfinite(v).all():
            raise DataError("time series contains non-finite entries")
        object.__setattr__(self, "values", _read_only(v))

    @property
    def n_timepoints(self) -> int:
        return self.values.shape[0]

    @property
    def n_rois(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Symmetric NxN correlation matrix with unit diagonal, entries in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise DataError(f"connectivity matrix must be square, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise DataError("connectivity matrix contains non-finite entries")
        if np.abs(v - v.T).max() > 1e-12:
            raise DataError("connectivity matrix is not symmetric")
        if (np.abs(v) > 1.0).any():
            raise DataError("connectivity entries must lie in [-1, 1]")
        if (np.diag(v) != 1.0).any():
            raise DataError("connectivity diagonal must be exactly 1")
        object.__setattr__(self, "values", _read_only(v))

    @property
    def n_rois(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SubjectRecord:
    subject_id: str
    fcn: ConnectivityMatrix
    label: int | None
    site_id: str


@dataclass(frozen=True)
class Dataset:
    subjects: tuple[SubjectRecord, ...]
    n_rois: int

    def __post_init__(self):
        for rec in self.subjects:
            if rec.fcn.n_rois != self.n_rois:
                raise DataError(
                    f"subject {rec.subject_id!r} has {rec.fcn.n_rois} regions, "
                    f"dataset declares {self.n_rois}")

    def __len__(self) -> int:
        return len(self.subjects)

    def labels(self) -> list[int | None]:
        return [s.label for s in self.subjects]


@dataclass(frozen=True)
class SiteSpec:
    """Recipe for one synthetic site."""

    n_subjects_per_class: int
    n_rois: int = 116
    series_length: int = 120
    class_separation: float = 0.0
    shift_rotation_strength: float = 0.0
    shift_offset_strength: float = 0.0
    noise_std: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value, integral = getattr(self, f.name), f.type == "int"
            if isinstance(value, bool) or not isinstance(value, Integral if integral else Real):
                raise DataError(f"SiteSpec.{f.name} must be "
                                f"{'an integer' if integral else 'a number'}, got {value!r}")
        for name, low in (("n_rois", 2), ("n_subjects_per_class", 1), ("series_length", 3)):
            if getattr(self, name) < low:
                raise DataError(f"SiteSpec needs {name} >= {low}")
        for name in ("class_separation", "shift_rotation_strength",
                     "shift_offset_strength", "noise_std"):
            if getattr(self, name) < 0:
                raise DataError(f"SiteSpec.{name} must be nonnegative")


# ---------------------------------------------------------------------------
# CSV parsing


def _parse_csv_matrix(path: Path) -> np.ndarray:
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    if path.is_dir():
        raise DataError(f"{path}: is a directory, not a CSV file")
    with contextlib.suppress(ValueError), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "no data": the cell parser names the file
        # an open file, not a path: numpy's path handling costs twice its parse
        with open(path, encoding="utf-8") as fh:
            values = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
        if values.size:
            return values
    return _parse_csv_cells(path)


def _parse_csv_cells(path: Path) -> np.ndarray:
    """The cell-by-cell reference parser, which names the first bad cell."""
    try:
        lines = path.read_text(encoding="utf-8").split("\n")  # universal newlines
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    rows: list[list[float]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        parsed = []
        for col, cell in enumerate(cells):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise DataError(
                    f"{path}: non-numeric cell {cell!r} at row {lineno}, column {col}"
                ) from None
        if rows and len(parsed) != len(rows[0]):
            raise DataError(
                f"{path}: ragged row {lineno} has {len(parsed)} cells, expected {len(rows[0])}"
            )
        rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: empty file")
    return np.array(rows, dtype=np.float64)


def _timeseries(path: Path, values: np.ndarray, subject_id: str | None,
                site_id: str) -> TimeSeries:
    try:
        return TimeSeries(subject_id=subject_id or path.stem, values=values, site_id=site_id)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_timeseries(path, subject_id: str | None = None, site_id: str = "") -> TimeSeries:
    """Parse a headerless CSV of T rows x N columns into a TimeSeries."""
    path = Path(path)
    return _timeseries(path, _parse_csv_matrix(path), subject_id, site_id)


def write_csv_matrix(values: np.ndarray, path) -> None:
    """Write a matrix as headerless CSV with round-trip-exact floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in np.asarray(values, dtype=np.float64).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


# ---------------------------------------------------------------------------
# connectivity construction


def pearson_fcn(ts: TimeSeries) -> ConnectivityMatrix:
    """Pairwise Pearson correlation of the regional signals."""
    x = ts.values
    dev = x - x.mean(axis=0, keepdims=True)
    ss = (dev * dev).sum(axis=0)
    degenerate = np.flatnonzero(ss == 0.0)
    if degenerate.size:
        raise DataError(
            f"degenerate signal: column {int(degenerate[0])} of subject "
            f"{ts.subject_id!r} has zero variance"
        )
    # sqrt of the product (not product of sqrts) saturates exactly at +-1
    # for exactly collinear columns
    c = (dev.T @ dev) / np.sqrt(np.outer(ss, ss))
    c = (c + c.T) / 2.0
    np.clip(c, -1.0, 1.0, out=c)
    np.fill_diagonal(c, 1.0)
    return ConnectivityMatrix(c)


# ---------------------------------------------------------------------------
# synthetic multi-site generation


def _class_loadings(n_rois: int, separation: float, rng: np.random.Generator):
    """Shared latent-factor loadings for both classes.

    Every region loads on one of four block factors; each class additionally
    couples its own disjoint region subset to a shared salience factor with
    strength `separation`, so the classes differ in connectivity pattern
    rather than signal mean.
    """
    n_blocks = min(4, max(2, n_rois // 4))
    block = np.arange(n_rois) % n_blocks
    base = np.zeros((n_rois, n_blocks + 1))
    base[np.arange(n_rois), block] = 0.8
    pattern = rng.uniform(0.5, 1.0, size=n_rois)
    halves = rng.permutation(n_rois)
    subset = [np.sort(halves[: n_rois // 2]), np.sort(halves[n_rois // 2 :])]
    loadings = []
    for cls in (0, 1):
        lam = base.copy()
        lam[subset[cls], n_blocks] = separation * pattern[subset[cls]]
        loadings.append(lam)
    return loadings


def _site_mixing(spec: SiteSpec, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal channel-mixing matrix, exp of a scaled random skew matrix."""
    from scipy.linalg import expm  # here, not at the top: only synth needs slow scipy.linalg

    a = rng.standard_normal((spec.n_rois, spec.n_rois))
    skew = (a - a.T) / 2.0
    skew /= max(np.abs(skew).max(), 1e-12)
    return expm(spec.shift_rotation_strength * skew)


def _simulate_site(spec: SiteSpec, site_id: str, loadings, rng: np.random.Generator) -> Dataset:
    mixing = _site_mixing(spec, rng)
    drift_loading = rng.standard_normal(spec.n_rois)
    subjects = []
    idx = 0
    for cls in (0, 1):
        lam_t = loadings[cls].T
        for _ in range(spec.n_subjects_per_class):
            z = rng.standard_normal((spec.series_length, lam_t.shape[0]))
            x = z @ lam_t
            if spec.noise_std > 0:
                x = x + spec.noise_std * rng.standard_normal(x.shape)
            if spec.shift_rotation_strength > 0:
                x = x @ mixing.T
            if spec.shift_offset_strength > 0:
                # common-mode drift: one shared time course, site-fixed channel loads
                drift = rng.standard_normal((spec.series_length, 1))
                x = x + spec.shift_offset_strength * drift * drift_loading[None, :]
            ts = TimeSeries(f"{site_id}_s{idx:04d}", x, site_id)
            subjects.append(SubjectRecord(ts.subject_id, pearson_fcn(ts), cls, site_id))
            idx += 1
    return Dataset(tuple(subjects), spec.n_rois)


def synth_multisite(source_spec: SiteSpec, target_spec: SiteSpec) -> tuple[Dataset, Dataset]:
    """Generate paired source/target datasets with a controllable domain shift.

    Class-conditional covariance templates are shared across the two sites;
    each site then applies its own orthogonal mixing and additive
    common-mode offset (both zero-strength by default) before the Pearson
    construction. Fully deterministic given the spec seeds.
    """
    if source_spec.n_rois != target_spec.n_rois:
        raise DataError("source and target must share n_rois")
    template_rng = np.random.default_rng(
        np.random.SeedSequence([source_spec.seed, target_spec.seed, 0])
    )
    loadings = _class_loadings(source_spec.n_rois, source_spec.class_separation, template_rng)
    source = _simulate_site(
        source_spec, "source", loadings,
        np.random.default_rng(np.random.SeedSequence([source_spec.seed, 1])),
    )
    target = _simulate_site(
        target_spec, "target", loadings,
        np.random.default_rng(np.random.SeedSequence([target_spec.seed, 2])),
    )
    return source, target


# ---------------------------------------------------------------------------
# dataset manifests


def load_dataset(manifest_path) -> Dataset:
    """Load a dataset manifest, building connectivity from raw series as needed."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise FileNotFoundError(f"no such manifest: {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"dataset manifest is not valid UTF-8 JSON: {manifest_path} "
                        f"({exc})") from None

    def field(entry, key: str, where: str, cast):
        if not isinstance(entry, dict):
            raise DataError(f"dataset manifest {manifest_path}: {where} is not a JSON object")
        if key not in entry:
            raise DataError(f"dataset manifest {manifest_path}: {where} lacks {key!r}")
        try:
            return cast(entry[key])
        except (TypeError, ValueError):
            raise DataError(f"dataset manifest {manifest_path}: {where} has an invalid "
                            f"{key!r}: {entry[key]!r}") from None

    n_rois = field(manifest, "n_rois", "the top level", int)
    entries = field(manifest, "subjects", "the top level", list)
    if not entries:
        raise DataError(f"dataset manifest {manifest_path}: 'subjects' is empty")
    root = manifest_path.parent
    # Parse every CSV first, in two processes where that pays, keeping each
    # file's error; the checks below then meet the parses and the errors in
    # manifest order, as if each file were read where it is checked.
    parsed = cohort_map(_parse_or_error, [
        root / str(e["path"]) if isinstance(e, dict) and "path" in e
        and e.get("kind", "fcn") in ("fcn", "timeseries") else None for e in entries],
        len(entries) * n_rois ** 2, _parse_csv_matrix)
    subjects = []
    seen: set[str] = set()
    for k, entry in enumerate(entries):
        sid = field(entry, "id", f"subject {k}", str)
        if sid in seen:
            raise DataError(f"duplicate subject_id {sid!r} in {manifest_path}")
        seen.add(sid)
        path = root / field(entry, "path", f"subject {sid!r}", str)
        if not path.exists():
            raise DataError(f"manifest {manifest_path} references missing file {path}")
        kind = entry.get("kind", "fcn")
        site = str(entry.get("site", ""))
        values = parsed[k]
        if isinstance(values, Exception):
            raise values
        if kind == "timeseries":
            fcn = pearson_fcn(_timeseries(path, values, sid, site))
        elif kind == "fcn":
            try:
                fcn = ConnectivityMatrix(values)
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
        else:
            raise DataError(f"unknown subject kind {kind!r} for {sid!r} in {manifest_path}")
        if fcn.n_rois != n_rois:
            raise DataError(
                f"dimension mismatch: subject {sid!r} has {fcn.n_rois} regions, "
                f"manifest {manifest_path} declares {n_rois}"
            )
        label = entry.get("label")
        if label is not None:
            label = field(entry, "label", f"subject {sid!r}", int)
            if label not in (0, 1):
                raise DataError(f"label for {sid!r} in {manifest_path} must be 0, 1, or null")
        subjects.append(SubjectRecord(sid, fcn, label, site))
    return Dataset(tuple(subjects), n_rois)


def _parse_or_error(path: Path | None) -> np.ndarray | Exception | None:
    if path is None:
        return None
    try:
        return _parse_csv_matrix(path)
    except Exception as exc:
        return exc


def save_dataset(dataset: Dataset, out_dir, with_labels: bool = True) -> Path:
    """Write per-subject connectivity CSVs plus a manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in dataset.subjects:
        fname = f"{rec.subject_id}.csv"
        write_csv_matrix(rec.fcn.values, out_dir / fname)
        entries.append({
            "id": rec.subject_id,
            "path": fname,
            "kind": "fcn",
            "label": rec.label if with_labels else None,
            "site": rec.site_id,
        })
    manifest = {"n_rois": dataset.n_rois, "subjects": entries}
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path
