"""Full model assembly and checkpoint serialization.

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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adaptation import ClassifierParams, classifier_shapes, init_classifier
from .diffkernel import Value
from .encoder import EncoderConfig, EncoderParams, init_encoder, parameter_shapes


@dataclass
class Model:
    encoder: EncoderParams
    classifier: ClassifierParams

    def param_dict(self) -> dict[str, Value]:
        merged = dict(self.encoder.values)
        merged.update(self.classifier.values)
        return merged

    @property
    def n_rois(self) -> int:
        return self.encoder.config.d_model


def build_model(n_rois: int, n_layers: int, n_heads: int, ffn_hidden: int,
                clf_hidden: int, ln_eps: float, seed: int,
                d_head: int | None = None) -> Model:
    """Initialize encoder and classifier with seeds derived from one seed."""
    enc_seed, clf_seed = [int(s.generate_state(1)[0])
                          for s in np.random.SeedSequence(seed).spawn(2)]
    cfg = EncoderConfig(n_layers=n_layers, n_heads=n_heads, d_model=n_rois,
                        d_head=d_head, ffn_hidden=ffn_hidden, ln_eps=ln_eps)
    encoder = init_encoder(cfg, enc_seed)
    classifier = init_classifier(n_rois * n_rois, clf_seed, hidden=clf_hidden)
    return Model(encoder=encoder, classifier=classifier)


def clone_model(model: Model) -> Model:
    """Deep copy: fresh Values with copied data."""
    enc_values = {k: Value(v.data.copy()) for k, v in model.encoder.values.items()}
    clf_values = {k: Value(v.data.copy()) for k, v in model.classifier.values.items()}
    return Model(encoder=EncoderParams(model.encoder.config, enc_values),
                 classifier=ClassifierParams(clf_values))


MAGIC = b"AUFACKP1"
DTYPE = "<f8"
_LEAD = len(MAGIC) + 8  # magic plus the u64 header length


class CheckpointError(ValueError):
    """A file that is not an intact checkpoint (exit 2)."""


def save_checkpoint(model: Model, path) -> None:
    """Write atomically: a temp file in the same directory, then a rename."""
    path = Path(path)
    cfg = model.encoder.config
    params = [(name, np.ascontiguousarray(v.data, dtype=DTYPE))
              for name, v in model.param_dict().items()]
    digest = hashlib.sha256()
    for _, arr in params:
        digest.update(arr)
    header = json.dumps({
        "config": {
            "n_layers": cfg.n_layers,
            "n_heads": cfg.n_heads,
            "d_model": cfg.d_model,
            "d_head": cfg.d_head,
            "ffn_hidden": cfg.ffn_hidden,
            "ln_eps": cfg.ln_eps,
            "clf_hidden": model.classifier.hidden,
        },
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


def _read_header(fh, path: Path) -> tuple[EncoderConfig, int, list, str]:
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
        config = EncoderConfig(
            n_layers=int(c["n_layers"]), n_heads=int(c["n_heads"]),
            d_model=int(c["d_model"]),
            d_head=None if c["d_head"] is None else int(c["d_head"]),
            ffn_hidden=int(c["ffn_hidden"]), ln_eps=float(c["ln_eps"]))
        clf_hidden = int(c["clf_hidden"])
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
    expected = {**parameter_shapes(config),
                **classifier_shapes(config.d_model ** 2, clf_hidden)}
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
    return config, clf_hidden, entries, digest


def read_checkpoint_config(path) -> tuple[EncoderConfig, int]:
    """Encoder config and classifier width, read from the header alone."""
    path = Path(path)
    with open(path, "rb") as fh:
        config, clf_hidden, _, _ = _read_header(fh, path)
    return config, clf_hidden


def load_checkpoint(path) -> Model:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such checkpoint: {path}")
    with open(path, "rb") as fh:
        cfg, _, entries, digest = _read_header(fh, path)
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
    enc_values = {k: v for k, v in values.items() if not k.startswith("clf.")}
    clf_values = {k: v for k, v in values.items() if k.startswith("clf.")}
    return Model(encoder=EncoderParams(cfg, enc_values),
                 classifier=ClassifierParams(clf_values))
