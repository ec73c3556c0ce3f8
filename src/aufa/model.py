"""The model (a ModelConfig and one parameter dict), its init and checkpoints.

A checkpoint is one binary file, laid out as:

- the 8-byte magic ``AUFACKP1``;
- the header length in bytes, a little-endian u64;
- a UTF-8 JSON header: ``{"config": {...architecture...}, "dtype": "<f8",
  "params": [[name, [rows, cols]], ...], "sha256": <hex digest of the
  payload>}``;
- the payload: every parameter as raw little-endian float64, row-major, in
  header order, with nothing between them.

The bytes are a pure function of the model, so save/load is bitwise lossless
and saving the same model twice gives identical files. The loader identifies
the format by its magic, never by the file name, checks the parameter
names and shapes against those the builder gives the header's architecture,
and checks the payload length and digest before building any parameter.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .diffkernel import Value


@dataclass(frozen=True)
class ModelConfig:
    """The architecture: encoder widths and depth, then the classifier's
    hidden width. A checkpoint header's `config` is this, field by field."""

    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 116
    d_head: int | None = None  # defaults to d_model // n_heads
    ffn_hidden: int = 256
    ln_eps: float = 1e-5
    clf_hidden: int = 4096

    def __post_init__(self):
        if self.n_layers < 1 or self.n_heads < 1:
            raise ValueError("ModelConfig needs at least one layer and one head")
        # head_width is d_head when it is set, and at least 1 otherwise
        if min(self.d_model, self.ffn_hidden, self.clf_hidden, self.head_width) < 1:
            raise ValueError("ModelConfig widths must be positive")
        if self.ln_eps <= 0:
            raise ValueError("ModelConfig ln_eps must be positive")

    @property
    def head_width(self) -> int:
        return self.d_head if self.d_head is not None else max(1, self.d_model // self.n_heads)


@dataclass(frozen=True)
class Model:
    """The architecture and every learnable weight, keyed by dotted name in
    `parameter_shapes` order: the encoder's, then the classifier's `clf.*`."""

    config: ModelConfig
    params: dict[str, Value]

    def __getitem__(self, name: str) -> Value:
        return self.params[name]


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """Name and shape of every weight, in initialization order."""
    d, dk_, h, f = config.d_model, config.head_width, config.n_heads, config.ffn_hidden
    shapes: dict[str, tuple[int, int]] = {}
    for layer in range(config.n_layers):
        p = f"layer{layer}"
        for head in range(h):
            for w in ("WQ", "WK", "WV"):
                shapes[f"{p}.head{head}.{w}"] = (d, dk_)
        shapes[f"{p}.W"] = (h * dk_, d)
        shapes[f"{p}.ln1.g"] = (1, d)
        shapes[f"{p}.ln1.b"] = (1, d)
        shapes[f"{p}.W1"] = (d, f)
        shapes[f"{p}.b1"] = (1, f)
        shapes[f"{p}.W2"] = (f, d)
        shapes[f"{p}.b2"] = (1, d)
        shapes[f"{p}.ln2.g"] = (1, d)
        shapes[f"{p}.ln2.b"] = (1, d)
    # the classifier: d_model^2 graph features -> clf_hidden -> 2
    c = config.clf_hidden
    shapes.update({"clf.W1": (d * d, c), "clf.b1": (1, c), "clf.W2": (c, 2), "clf.b2": (1, 2)})
    return shapes


def param_kind(name: str) -> str:
    """`gain` for a layer-norm gain (`.g`), `bias` for a bias or offset
    (`.b*`), `weight` for anything else."""
    kind = name.rsplit(".", 1)[1]
    return "gain" if kind == "g" else "bias" if kind.startswith("b") else "weight"


def init_values(shapes: dict[str, tuple[int, int]], seed: int) -> dict[str, Value]:
    """Gains 1, biases 0, and uniform Xavier weight matrices drawn in
    `shapes` order. Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    values: dict[str, Value] = {}
    for name, shape in shapes.items():
        kind = param_kind(name)
        if kind == "gain":
            values[name] = Value(np.ones(shape))
        elif kind == "bias":
            values[name] = Value(np.zeros(shape))
        else:
            a = math.sqrt(6.0 / sum(shape))
            values[name] = Value(rng.uniform(-a, a, size=shape))
    return values


def build_model(n_rois: int, n_layers: int, n_heads: int, ffn_hidden: int,
                clf_hidden: int, ln_eps: float, seed: int,
                d_head: int | None = None) -> Model:
    """Initialize the encoder and the classifier weights with two seeds
    derived from one seed."""
    enc_seed, clf_seed = [int(s.generate_state(1)[0])
                          for s in np.random.SeedSequence(seed).spawn(2)]
    config = ModelConfig(n_layers=n_layers, n_heads=n_heads, d_model=n_rois, d_head=d_head,
                         ffn_hidden=ffn_hidden, ln_eps=ln_eps, clf_hidden=clf_hidden)
    shapes = parameter_shapes(config)
    head = {name: shapes.pop(name) for name in list(shapes) if name.startswith("clf.")}
    return Model(config, {**init_values(shapes, enc_seed), **init_values(head, clf_seed)})


def clone_model(model: Model) -> Model:
    """Deep copy: fresh Values with copied data."""
    return Model(model.config, {k: Value(v.data.copy()) for k, v in model.params.items()})


MAGIC = b"AUFACKP1"
DTYPE = "<f8"
_LEAD = len(MAGIC) + 8  # magic plus the u64 header length


class CheckpointError(ValueError):
    """A file that is not an intact checkpoint (exit 2)."""


def save_checkpoint(model: Model, path) -> None:
    """Write atomically: a temp file in the same directory, then a rename."""
    path = Path(path)
    params = [(name, np.ascontiguousarray(v.data, dtype=DTYPE))
              for name, v in model.params.items()]
    digest = hashlib.sha256()
    for _, arr in params:
        digest.update(arr)
    header = json.dumps({
        "config": asdict(model.config),
        "dtype": DTYPE,
        "params": [[name, list(arr.shape)] for name, arr in params],
        "sha256": digest.hexdigest(),
    }).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + len(header).to_bytes(8, "little") + header)
            for _, arr in params:
                fh.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(fh, path: Path) -> tuple[ModelConfig, list, str]:
    """Parse magic, length and JSON header; leave `fh` at the payload."""
    size = os.fstat(fh.fileno()).st_size
    lead = fh.read(_LEAD)
    if not (lead.startswith(MAGIC) or MAGIC.startswith(lead)):
        hint = ""
        if lead.lstrip()[:1] == b"{":
            hint = " (a JSON checkpoint of an earlier version: re-create it with pretrain or adapt)"
        raise CheckpointError(f"not an aufa checkpoint{hint}: {path}")
    n_header = int.from_bytes(lead[len(MAGIC):], "little")
    if len(lead) < _LEAD or _LEAD + n_header > size:
        raise CheckpointError(f"checkpoint is truncated inside its header: {path}")
    raw = fh.read(n_header)
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint header is not JSON: {path} ({exc})") from None
    try:
        c = header["config"]
        config = ModelConfig(
            n_layers=int(c["n_layers"]), n_heads=int(c["n_heads"]),
            d_model=int(c["d_model"]), clf_hidden=int(c["clf_hidden"]),
            d_head=None if c["d_head"] is None else int(c["d_head"]),
            ffn_hidden=int(c["ffn_hidden"]), ln_eps=float(c["ln_eps"]))
        entries = [(str(name), (int(rows), int(cols)))
                   for name, (rows, cols) in header["params"]]
        if header["dtype"] != DTYPE:
            raise ValueError(f"dtype {header['dtype']!r}, expected {DTYPE!r}")
        if len({name for name, _ in entries}) != len(entries):
            raise ValueError("duplicate parameter names")
        digest = str(header["sha256"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint header is malformed: {path} ({exc!r})") from None
    # the names and shapes the builder gives this architecture
    expected = parameter_shapes(config)
    found = dict(entries)
    for name, shape in expected.items():
        if name not in found:
            raise CheckpointError(f"checkpoint lacks parameter {name}: {path}")
        if found[name] != shape:
            raise CheckpointError(f"checkpoint parameter {name} has shape {found[name]}, "
                                  f"expected {shape}: {path}")
    extra = sorted(found.keys() - expected.keys())
    if extra:
        raise CheckpointError(f"checkpoint has unexpected parameter {extra[0]}: {path}")
    return config, entries, digest


def read_checkpoint_config(path) -> ModelConfig:
    """The architecture, read from the header alone."""
    with open(path, "rb") as fh:
        return _read_header(fh, Path(path))[0]


def load_checkpoint(path) -> Model:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such checkpoint: {path}")
    with open(path, "rb") as fh:
        cfg, entries, digest = _read_header(fh, path)
        counts = [rows * cols for _, (rows, cols) in entries]
        expected = 8 * sum(counts)
        actual = os.fstat(fh.fileno()).st_size - fh.tell()
        if actual < expected:
            raise CheckpointError(f"checkpoint is truncated: {path} "
                                  f"(payload has {actual} of {expected} bytes)")
        if actual > expected:
            raise CheckpointError(f"checkpoint payload is {actual} bytes but its "
                                  f"header shapes need {expected}: {path}")
        # a bytearray, so the parameter views below are writable in place
        payload = bytearray(expected)
        fh.readinto(payload)
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CheckpointError(f"checkpoint payload does not match its sha256: {path}")
    values: dict[str, Value] = {}
    offset = 0
    for (name, shape), count in zip(entries, counts):
        arr = np.frombuffer(payload, dtype=DTYPE, count=count, offset=offset)
        offset += 8 * count
        try:
            values[name] = Value(arr.reshape(shape))
        except ValueError as exc:
            raise CheckpointError(f"checkpoint parameter {name}: {exc}: {path}") from None
    return Model(cfg, values)
