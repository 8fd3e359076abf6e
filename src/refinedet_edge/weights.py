"""Weight bundles: declared tensor sets, seeded initialization, file format.

A bundle is an ordered name -> float32 array mapping.  On disk it is a text
manifest (names + shapes + digest) followed by one flat little-endian float32
stream; the digest is 64-bit FNV-1a over that stream.
"""

from dataclasses import dataclass

import numpy as np

WTS_MAGIC = "refinedet-edge-weights"
WTS_FORMAT_VERSION = 1

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of a byte string."""
    h = _FNV_OFFSET
    mask = 0xFFFFFFFFFFFFFFFF
    prime = _FNV_PRIME
    for b in data:
        h = ((h ^ b) * prime) & mask
    return h


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
        return fnv1a64(self.to_bytes())


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


def gaussian_values(bundle, decls):
    """Concatenate the values of Gaussian-initialized tensors (for stats)."""
    gaussian_names = {d.name for d in decls if d.const is None}
    parts = [a.ravel() for n, a in bundle.items() if n in gaussian_names]
    if not parts:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate(parts)


def save_wts(path, bundle, model_name=""):
    """Write a bundle: text manifest, digest, then the raw float32 stream."""
    blob = bundle.to_bytes()
    digest = fnv1a64(blob)
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


def load_wts(path):
    """Read a bundle back; verifies sizes and the stored digest.

    Returns (bundle, model_name).
    """
    with open(path, "rb") as f:
        raw = f.read()
    nl = raw.find(b"\n")
    if nl < 0 or raw[:nl].decode("utf-8", "replace") != WTS_MAGIC:
        raise ValueError(f"{path}: not a weight bundle (bad magic line)")
    # split header lines until the data marker
    pos = nl + 1
    meta = {}
    decls = []
    while True:
        nl = raw.find(b"\n", pos)
        if nl < 0:
            raise ValueError(f"{path}: truncated header (no data marker)")
        line = raw[pos:nl].decode("utf-8")
        pos = nl + 1
        if line.startswith("tensor "):
            parts = line.split()
            name = parts[1]
            shape = tuple(int(d) for d in parts[2:])
            decls.append((name, shape))
        elif line.startswith("data "):
            nbytes = int(line.split()[1])
            break
        elif "=" in line:
            k, _, v = line.partition("=")
            meta[k.strip()] = v.strip()
        else:
            raise ValueError(f"{path}: unrecognized header line {line!r}")
    version = int(meta.get("format_version", "-1"))
    if version != WTS_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version}")
    blob = raw[pos : pos + nbytes]
    if len(blob) != nbytes:
        raise ValueError(f"{path}: expected {nbytes} data bytes, file holds {len(blob)}")
    expected = sum(int(np.prod(s, dtype=np.int64)) for _, s in decls) * 4
    if nbytes != expected:
        raise ValueError(f"{path}: manifest declares {expected} bytes of tensors, data block has {nbytes}")
    stored = int(meta.get("digest", "0"), 16)
    actual = fnv1a64(blob)
    if stored != actual:
        raise ValueError(f"{path}: digest mismatch (stored {stored:#018x}, computed {actual:#018x})")
    if int(meta.get("tensor_count", len(decls))) != len(decls):
        raise ValueError(f"{path}: tensor_count {meta.get('tensor_count')} != {len(decls)} manifest lines")
    tensors = []
    off = 0
    for name, shape in decls:
        n = int(np.prod(shape, dtype=np.int64))
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(shape).copy()
        tensors.append((name, arr))
        off += n * 4
    return WeightBundle(tensors), meta.get("model", "")
