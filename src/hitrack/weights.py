"""Parameter construction, deterministic initialization and serialization.

``init_weights`` builds the full parameter tree for a config with a seeded
fan-in-scaled uniform init (weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
biases and bias tables zero, affine scales one). Construction order is fixed,
so a seed pins every bit of every tensor.

The archive format is little-endian and platform independent:

    magic "HITW" | version u16 | tensor count u32
    per tensor:  name (u16 length + utf-8) | dtype code u8 | ndim u8 | dims u32
    payload:     raw little-endian blobs, manifest order
    trailer:     CRC32 of the payload, u32

Loading rebuilds the tree for a config and rejects checksum failures, missing
or extra tensors, and per-tensor shape mismatches by name.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .attention import AffineParams, BlockWeights, MhaWeights, MlpWeights, SaWeights
from .config import BRIDGE_KERNEL, MLP_RATIO, STAGE_BLOCKS, ModelConfig, geometry
from .errors import DataError, ShapeError

MAGIC = b"HITW"
VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR_KIND = {"f4": 0, "f8": 1}


@dataclass(eq=False)
class ConvAffine:
    kernel: np.ndarray
    scale: np.ndarray
    shift: np.ndarray


@dataclass(eq=False)
class EmbedWeights:
    convs: list[ConvAffine]


@dataclass(eq=False)
class BridgeWeights:
    up1: np.ndarray  # [k, k, C3, C2]
    up2: np.ndarray  # [k, k, C2, C1]


@dataclass(eq=False)
class ConvBias:
    kernel: np.ndarray
    bias: np.ndarray


@dataclass(eq=False)
class CornerHeadWeights:
    proj: np.ndarray | None  # [Cg, C1]; None means identity (Route1 head)
    tl: list[ConvBias]
    br: list[ConvBias]


@dataclass(eq=False)
class RouterWeights:
    """Three linear layers C1 -> h1 -> h2 -> 1 with hardswish between and a
    sigmoid output; tau_fg is the foreground threshold used to pool scores."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    tau_fg: float = 0.6


@dataclass(eq=False)
class ModelParams:
    config: ModelConfig
    embed: EmbedWeights
    stages: list[list[BlockWeights]]
    shrinks: list[SaWeights]
    bridge: BridgeWeights
    head1: CornerHeadWeights
    head2: CornerHeadWeights
    router: RouterWeights


# Values per uniform draw. ``uniform`` takes one double per value in C order,
# so drawing a tensor in blocks gives the bits of one whole-tensor draw while
# the float64 scratch stays at 512 KiB whatever the tensor's size.
_DRAW_BLOCK = 1 << 16


def _uniform_maker(seed: int):
    rng = np.random.default_rng(seed)

    def make(shape, fan_in, dtype):
        bound = 1.0 / np.sqrt(fan_in)
        out = np.empty(shape, dtype=dtype)
        flat = out.reshape(-1)
        for start in range(0, flat.size, _DRAW_BLOCK):
            block = flat[start:start + _DRAW_BLOCK]
            block[...] = rng.uniform(-bound, bound, size=block.size)
        return out

    return make


def _zero_maker():
    def make(shape, fan_in, dtype):
        return np.zeros(shape, dtype=dtype)

    return make


def _build_params(config: ModelConfig, make) -> ModelParams:
    dt = config.np_dtype
    geo = geometry(config)
    c1, c2, c3 = config.channels
    d = config.key_dim

    def zeros(shape):
        return np.zeros(shape, dtype=dt)

    def ones(shape):
        return np.ones(shape, dtype=dt)

    embed_chain = (3,) + config.embed_channels
    convs = []
    for cin, cout in zip(embed_chain[:-1], embed_chain[1:]):
        convs.append(ConvAffine(make((3, 3, cin, cout), 9 * cin, dt), ones(cout), zeros(cout)))
    embed = EmbedWeights(convs)

    def bias_table(stage_geo, n_heads):
        rows, cols = stage_geo.table_shape
        return zeros((n_heads, rows, cols))

    stages = []
    for s, c in enumerate(config.channels):
        n_heads = config.heads[s]
        blocks = []
        for _ in range(STAGE_BLOCKS[s]):
            attn = MhaWeights(
                wq=make((c, n_heads * d), c, dt),
                wk=make((c, n_heads * d), c, dt),
                wv=make((c, n_heads * 2 * d), c, dt),
                wo=make((n_heads * 2 * d, c), n_heads * 2 * d, dt),
                bias_table=bias_table(geo.stages[s], n_heads),
                n_heads=n_heads,
                key_dim=d,
            )
            hidden = MLP_RATIO * c
            mlp = MlpWeights(
                w1=make((c, hidden), c, dt), b1=zeros(hidden),
                w2=make((hidden, c), hidden, dt), b2=zeros(c),
            )
            blocks.append(BlockWeights(
                attn_affine=AffineParams(ones(c), zeros(c)),
                attn=attn,
                mlp_affine=AffineParams(ones(c), zeros(c)),
                mlp=mlp,
            ))
        stages.append(blocks)

    shrinks = []
    for s in range(2):
        cin = config.channels[s]
        cout = config.channels[s + 1]
        n_heads = config.heads[s + 1]
        shrinks.append(SaWeights(
            affine=AffineParams(ones(cin), zeros(cin)),
            wq=make((cin, n_heads * d), cin, dt),
            wk=make((cin, n_heads * d), cin, dt),
            wv=make((cin, n_heads * 4 * d), cin, dt),
            wo=make((n_heads * 4 * d, cout), n_heads * 4 * d, dt),
            bias_table=bias_table(geo.stages[s], n_heads),
            n_heads=n_heads,
            key_dim=d,
        ))

    k = BRIDGE_KERNEL
    bridge = BridgeWeights(
        up1=make((k, k, c3, c2), k * k * c3, dt),
        up2=make((k, k, c2, c1), k * k * c2, dt),
    )

    def corner_head(proj_in):
        proj = make((proj_in, c1), proj_in, dt) if proj_in else None
        chain = config.head_channels
        branches = []
        for _ in range(2):
            branch = [
                ConvBias(make((3, 3, ci, co), 9 * ci, dt), zeros(co))
                for ci, co in zip(chain[:-1], chain[1:])
            ]
            branches.append(branch)
        return CornerHeadWeights(proj, branches[0], branches[1])

    head1 = corner_head(0)        # consumes the stage-1 global vector (already C1 wide)
    head2 = corner_head(c3)       # projects the final global vector C3 -> C1

    h1, h2 = config.router_hidden
    router = RouterWeights(
        w1=make((c1, h1), c1, dt), b1=zeros(h1),
        w2=make((h1, h2), h1, dt), b2=zeros(h2),
        w3=make((h2, 1), h2, dt), b3=zeros(1),
        tau_fg=config.tau_fg,
    )

    return ModelParams(config, embed, stages, shrinks, bridge, head1, head2, router)


def init_weights(config: ModelConfig, seed: int = 0) -> ModelParams:
    """Seeded parameter set; identical seeds give bit-identical tensors.

    Each tensor is allocated once in the config dtype and drawn into in
    blocks of values, which give the same bits as one float64 draw of the
    whole tensor cast to that dtype.
    """
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    return _build_params(config, _uniform_maker(seed))


def zero_weights(config: ModelConfig) -> ModelParams:
    return _build_params(config, _zero_maker())


def _named_slots(obj, prefix=""):
    """Yield (name, parent, key) for every ndarray slot in the tree."""
    if isinstance(obj, ModelParams):
        for name in ("embed", "stages", "shrinks", "bridge", "head1", "head2", "router"):
            yield from _named_slots(getattr(obj, name), name)
        return
    if isinstance(obj, np.ndarray):
        raise AssertionError("arrays are yielded by their parents")
    if isinstance(obj, (list, tuple)):
        for i, child in enumerate(obj):
            yield from _named_slots(child, f"{prefix}.{i}")
        return
    for key in vars(obj):
        if key.startswith("_"):
            continue  # runtime caches are not parameters
        child = getattr(obj, key)
        name = f"{prefix}.{key}"
        if isinstance(child, np.ndarray):
            yield name, obj, key
        elif child is None or isinstance(child, (int, float, str)):
            continue
        else:
            yield from _named_slots(child, name)


def named_arrays(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    return [(name, getattr(parent, key)) for name, parent, key in _named_slots(params)]


def count_params(params: ModelParams) -> int:
    return sum(int(a.size) for _, a in named_arrays(params))


def write_archive(path, tensors: list[tuple[str, np.ndarray]]) -> None:
    """Write named tensors in the HITW container format."""
    manifest = bytearray()
    payload = bytearray()
    for name, arr in tensors:
        arr = np.asarray(arr)
        kind = "f8" if arr.dtype == np.float64 else "f4"
        code = _CODE_FOR_KIND[kind]
        blob = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code]).tobytes()
        encoded = name.encode("utf-8")
        manifest += struct.pack("<H", len(encoded)) + encoded
        manifest += struct.pack("<BB", code, arr.ndim)
        manifest += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        payload += blob
    header = MAGIC + struct.pack("<HI", VERSION, len(tensors))
    crc = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(bytes(manifest))
        fh.write(bytes(payload))
        fh.write(struct.pack("<I", crc))


def read_archive(path) -> dict[str, np.ndarray]:
    """Read a HITW container, verifying the payload checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 14 or blob[:4] != MAGIC:
        raise DataError(f"{path}: not a HITW weight archive")
    version, count = struct.unpack_from("<HI", blob, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported archive version {version}")
    offset = 10
    entries = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            code, ndim = struct.unpack_from("<BB", blob, offset)
            offset += 2
            shape = struct.unpack_from(f"<{ndim}I", blob, offset) if ndim else ()
            offset += 4 * ndim
            if code not in _DTYPE_CODES:
                raise DataError(f"{path}: unknown dtype code {code} for tensor {name!r}")
            entries.append((name, code, shape))
    except (struct.error, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: malformed archive manifest ({exc})") from exc
    payload_start = offset
    payload_end = len(blob) - 4
    if payload_end < payload_start:
        raise DataError(f"{path}: archive truncated inside the manifest")
    (stored_crc,) = struct.unpack_from("<I", blob, payload_end)
    payload = blob[payload_start:payload_end]
    if zlib.crc32(payload) & 0xFFFFFFFF != stored_crc:
        raise DataError(f"{path}: payload checksum mismatch, archive is corrupt")
    tensors = {}
    pos = 0
    for name, code, shape in entries:
        dtype = _DTYPE_CODES[code]
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = n * dtype.itemsize
        if pos + nbytes > len(payload):
            raise DataError(f"{path}: payload truncated at tensor {name!r}")
        tensors[name] = np.frombuffer(payload[pos:pos + nbytes], dtype=dtype).reshape(shape).copy()
        pos += nbytes
    if pos != len(payload):
        raise DataError(f"{path}: {len(payload) - pos} trailing payload bytes")
    return tensors


def save_weights(path, params: ModelParams) -> None:
    write_archive(path, named_arrays(params))


def load_weights(path, config: ModelConfig) -> ModelParams:
    """Rebuild a parameter tree from an archive, validating against config."""
    tensors = read_archive(path)
    params = zero_weights(config)
    slots = list(_named_slots(params))
    expected = {name for name, _, _ in slots}
    missing = expected - tensors.keys()
    extra = tensors.keys() - expected
    if missing or extra:
        raise ShapeError(
            f"{path}: archive does not match config {config.variant!r} "
            f"(missing {sorted(missing)[:3]}, unexpected {sorted(extra)[:3]})"
        )
    for name, parent, key in slots:
        current = getattr(parent, key)
        stored = tensors[name]
        if tuple(stored.shape) != tuple(current.shape):
            raise ShapeError(
                f"{path}: tensor {name!r} has shape {tuple(stored.shape)}, "
                f"config {config.variant!r} expects {tuple(current.shape)}"
            )
        setattr(parent, key, stored.astype(config.np_dtype))
    return params
