"""Weight bundles: declared tensor sets, seeded initialization, file format.

A bundle is an ordered name -> float32 array mapping.  On disk it is a text
manifest (names + shapes + digest) followed by one flat little-endian float32
stream.  Files are written as `format_version = 2`, whose digest is the first
8 bytes of SHA-256 over that stream (`sha256_64`); version 1 files, digested
with 64-bit FNV-1a (`fnv1a64`), are still read and verified.
"""

from dataclasses import dataclass
import hashlib
import math
import re

import numpy as np

WTS_MAGIC = "refinedet-edge-weights"
WTS_FORMAT_VERSION = 2
# format_version -> name of the digest function in this module; looked up at
# call time, so a wrapper installed on the module sees every call
WTS_DIGESTS = {1: "fnv1a64", 2: "sha256_64"}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_UINT = re.compile(r"[0-9]+")
_HEX64 = re.compile(r"0x[0-9a-fA-F]{1,16}")


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    mask = 0xFFFFFFFFFFFFFFFF
    prime = _FNV_PRIME
    for b in data:
        h = ((h ^ b) * prime) & mask
    return h


def sha256_64(data) -> int:
    """The first 8 bytes of SHA-256 of a byte string, as a big-endian integer."""
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


@dataclass(frozen=True)
class TensorDecl:
    """One declared tensor: name, shape, and how it is initialized.

    `const` None means the tensor is a random Gaussian draw; otherwise it is
    filled with that constant.  Non-trainable tensors (batch-norm running
    statistics) are excluded from parameter counts.
    """

    name: str
    shape: tuple
    const: float = None
    trainable: bool = True

    @property
    def size(self):
        n = 1
        for d in self.shape:
            n *= int(d)
        return n


class WeightBundle:
    """Ordered mapping of tensor name -> float32 ndarray."""

    def __init__(self, tensors):
        self._store = {}
        for name, arr in tensors:
            if name in self._store:
                raise ValueError(f"duplicate tensor name {name!r}")
            arr = np.asarray(arr, dtype=np.float32)
            self._store[name] = arr

    def __getitem__(self, name):
        try:
            return self._store[name]
        except KeyError:
            raise KeyError(f"bundle has no tensor named {name!r}") from None

    def __contains__(self, name):
        return name in self._store

    def __len__(self):
        return len(self._store)

    def names(self):
        return list(self._store)

    def items(self):
        return self._store.items()

    def to_bytes(self) -> bytes:
        """All tensors concatenated as little-endian float32, manifest order."""
        chunks = [a.astype("<f4").tobytes() for a in self._store.values()]
        return b"".join(chunks)

    def digest(self) -> int:
        return sha256_64(self.to_bytes())


def check_shapes(bundle, decls):
    """Verify that `bundle` carries exactly the declared tensors."""
    names = bundle.names()
    declared = [d.name for d in decls]
    if names != declared:
        missing = [n for n in declared if n not in bundle]
        extra = [n for n in names if n not in set(declared)]
        raise ValueError(f"bundle/declaration mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
    for d in decls:
        got = bundle[d.name].shape
        if tuple(got) != tuple(d.shape):
            raise ValueError(f"tensor {d.name!r} has shape {tuple(got)}, declared {tuple(d.shape)}")


def init_from_decls(decls, seed, sigma=0.01):
    """Fill declared tensors: Gaussian N(0, sigma) draws in declaration order
    from one seeded generator; constant tensors take their declared value."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rng = np.random.default_rng(seed)
    tensors = []
    for d in decls:
        if d.const is None:
            arr = rng.normal(0.0, sigma, size=d.shape).astype(np.float32)
        else:
            arr = np.full(d.shape, d.const, dtype=np.float32)
        tensors.append((d.name, arr))
    return WeightBundle(tensors)


def save_wts(path, bundle, model_name=""):
    """Write a bundle: text manifest, digest, then the raw float32 stream.

    A model name with a line break or surrounding whitespace, or a tensor
    name that is empty or holds whitespace, would not read back unchanged:
    it raises ValueError before anything is written.
    """
    if model_name != model_name.strip() or len(model_name.splitlines()) > 1:
        raise ValueError(f"model name {model_name!r} has a line break or surrounding whitespace")
    for name in bundle.names():
        if not name or any(c.isspace() for c in name):
            raise ValueError(f"tensor name {name!r} is empty or holds whitespace")
    blob = bundle.to_bytes()
    digest = sha256_64(blob)
    lines = [
        WTS_MAGIC,
        f"format_version = {WTS_FORMAT_VERSION}",
        f"model = {model_name}",
        f"tensor_count = {len(bundle)}",
        f"digest = {digest:#018x}",
    ]
    for name, arr in bundle.items():
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(f"tensor {name} {dims}")
    lines.append(f"data {len(blob)}")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as f:
        f.write(header)
        f.write(blob)
    return digest


def _header_int(path, line, text, digest=False):
    """`text`, a field of header `line`: a decimal count, or the hex digest."""
    pattern, what = (_HEX64, "a 64-bit hex digest") if digest else (_UINT, "a non-negative integer")
    if not pattern.fullmatch(text):
        raise ValueError(f"{path}: bad header line {line!r}: {text!r} is not {what}")
    return int(text, 16 if digest else 10)


def load_wts(path):
    """Read a bundle back; verifies the header, sizes and the stored digest.

    Every malformed file raises ValueError naming `path` and the offending
    header line.  Returns (bundle, model_name).
    """
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0 or raw[:nl].decode("utf-8", "replace") != WTS_MAGIC:
        raise ValueError(f"{path}: not a weight bundle (bad magic line)")
    # split header lines until the data marker
    pos = nl + 1
    meta = {}  # key -> (value, the line it came from)
    decls = {}  # tensor name -> shape, in manifest order
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise ValueError(f"{path}: truncated header (no data marker)")
        try:
            line = raw[pos:nl].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: header line {raw[pos:nl]!r} is not UTF-8 text") from None
        pos = nl + 1
        parts = line.split()
        if line.startswith("tensor "):
            if len(parts) < 2:
                raise ValueError(f"{path}: bad header line {line!r}: no tensor name")
            if parts[1] in decls:
                raise ValueError(f"{path}: bad header line {line!r}: duplicate tensor name")
            decls[parts[1]] = tuple(_header_int(path, line, d) for d in parts[2:])
        elif line.startswith("data "):
            if len(parts) != 2:
                raise ValueError(f"{path}: bad header line {line!r}: expected 'data <nbytes>'")
            nbytes = _header_int(path, line, parts[1])
            break
        elif "=" in line:
            k, _, v = line.partition("=")
            meta[k.strip()] = (v.strip(), line)
        else:
            raise ValueError(f"{path}: unrecognized header line {line!r}")

    def number(key, digest=False):
        if key not in meta:
            raise ValueError(f"{path}: header has no {key!r} line")
        value, line = meta[key]
        return _header_int(path, line, value, digest)

    version = number("format_version")
    if version not in WTS_DIGESTS:
        raise ValueError(f"{path}: unsupported format_version {version} "
                         f"(this build reads {sorted(WTS_DIGESTS)})")
    stored = number("digest", digest=True)
    if len(raw) - pos != nbytes:
        raise ValueError(f"{path}: header line {line!r} declares {nbytes} data bytes, "
                         f"file holds {len(raw) - pos} after the header")
    expected = sum(math.prod(s) for s in decls.values()) * 4  # Python ints: no overflow
    if nbytes != expected:
        raise ValueError(f"{path}: manifest declares {expected} bytes of tensors, data block has {nbytes}")
    if "tensor_count" in meta and number("tensor_count") != len(decls):
        raise ValueError(f"{path}: tensor_count {meta['tensor_count'][0]} != {len(decls)} manifest lines")
    blob = memoryview(raw)[pos:]
    actual = globals()[WTS_DIGESTS[version]](blob)
    if stored != actual:
        raise ValueError(f"{path}: digest mismatch (stored {stored:#018x}, computed {actual:#018x})")
    tensors = []
    off = 0
    for name, shape in decls.items():
        n = math.prod(shape)
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(shape).copy()
        tensors.append((name, arr))
        off += n * 4
    return WeightBundle(tensors), meta.get("model", ("",))[0]
