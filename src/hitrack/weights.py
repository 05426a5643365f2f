"""Parameter construction, deterministic initialization and serialization.

``init_weights`` builds the full parameter tree for a config with a seeded
fan-in-scaled uniform init (weights in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
biases and bias tables zero, affine scales one). Construction order is fixed,
so a seed pins every bit of every tensor. ``router_weights`` draws the router
for both ``init_weights`` and ``objectives.fit_router``, so a fit starts from
the same shapes and fan-in bounds as the seeded tree.

Below ``ModelParams.config`` the tree holds only tensors: every field is an
ndarray, a list or dataclass of them, or Head1's ``proj=None``. The head
count, the key width and the router's ``tau_fg`` are read from the config or
from tensor shapes, never stored beside the tensors. Archive tensors are
named by their dataclass field paths, list items numbered
(``embed.convs.0.kernel``), and written in field order.

The archive format is little-endian and platform independent:

    magic "HITW" | version u16 | tensor count u32
    per tensor:  name (u16 length + utf-8) | dtype code u8 | ndim u8 | dims u32
    payload:     raw little-endian blobs, manifest order
    trailer:     CRC32 of the payload, u32

Loading builds the tree for a config and checks the manifest against it
before it reads a payload byte: a duplicated, missing or extra name and a
shape mismatch are rejected by name. The payload is then read straight into
the tree's tensors under a running CRC32, and a checksum failure is
rejected. Writing streams each tensor's buffer the same way, so neither
direction holds a second copy of the weights. ``save_weights`` stores every
tensor in the config dtype, so a float64 router fitted for a float32 tree is
written as f4.
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .attention import AffineParams, BlockWeights, MhaWeights, MlpWeights, SaWeights
from .config import (BRIDGE_KERNEL, MHA_VALUE_RATIO, MLP_RATIO, SHRINK_VALUE_RATIO, STAGE_BLOCKS,
                     ModelConfig, geometry)
from .errors import DataError, ShapeError

MAGIC = b"HITW"
VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


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
    sigmoid output."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray


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


def _zeros(shape, fan_in, dtype):
    return np.zeros(shape, dtype=dtype)


def router_weights(make, c_in, hidden, dtype) -> RouterWeights:
    """The router c_in -> h1 -> h2 -> 1: w1, w2 and w3 from ``make`` in that
    order, zero biases."""
    h1, h2 = (int(n) for n in hidden)
    return RouterWeights(
        w1=make((c_in, h1), c_in, dtype), b1=np.zeros(h1, dtype),
        w2=make((h1, h2), h1, dtype), b2=np.zeros(h2, dtype),
        w3=make((h2, 1), h2, dtype), b3=np.zeros(1, dtype),
    )


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

    def projections(cin, cout, n_heads, v):
        """wq, wk [cin, N*D], wv [cin, N*v*D] and wo [N*v*D, cout], drawn in that order."""
        width = n_heads * v * d
        return dict(wq=make((cin, n_heads * d), cin, dt), wk=make((cin, n_heads * d), cin, dt),
                    wv=make((cin, width), cin, dt), wo=make((width, cout), width, dt))

    stages = []
    for s, c in enumerate(config.channels):
        n_heads = config.heads[s]
        blocks = []
        for _ in range(STAGE_BLOCKS[s]):
            attn = MhaWeights(**projections(c, c, n_heads, MHA_VALUE_RATIO),
                              bias_table=bias_table(geo.stages[s], n_heads))
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
            **projections(cin, cout, n_heads, SHRINK_VALUE_RATIO),
            bias_table=bias_table(geo.stages[s], n_heads),
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

    router = router_weights(make, c1, config.router_hidden, dt)

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
    return _build_params(config, _zeros)


def named_arrays(obj, prefix: str = "") -> list[tuple[str, np.ndarray]]:
    """(name, array) for every ndarray in the tree, named by its field path
    in field order; list items are numbered."""
    if isinstance(obj, np.ndarray):
        return [(prefix, obj)]
    if isinstance(obj, list):
        children = [(str(i), item) for i, item in enumerate(obj)]
    elif is_dataclass(obj):
        children = [(f.name, getattr(obj, f.name)) for f in fields(obj)]
    else:
        return []
    return [pair for key, child in children
            for pair in named_arrays(child, f"{prefix}.{key}" if prefix else key)]


def write_archive(path, tensors: list[tuple[str, np.ndarray]]) -> None:
    """Write named tensors in the HITW container format, float64 tensors as
    f8 and all others as f4, streaming each tensor's buffer under a running
    CRC32."""
    blobs = []
    crc = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<HI", VERSION, len(tensors)))
        for name, arr in tensors:
            code = 1 if np.asarray(arr).dtype == np.float64 else 0
            blob = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])
            encoded = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(encoded)}sBB{blob.ndim}I",
                                 len(encoded), encoded, code, blob.ndim, *blob.shape))
            blobs.append(blob)
        for blob in blobs:
            fh.write(blob)
            crc = zlib.crc32(blob, crc)
        fh.write(struct.pack("<I", crc))


def _read_manifest(fh, path) -> dict[str, tuple[np.dtype, tuple[int, ...]]]:
    """Each tensor's stored dtype and shape by name, in manifest order, with
    ``fh`` left at the first payload byte; a duplicated name is rejected."""
    head = fh.read(10)
    if len(head) < 10 or head[:4] != MAGIC:
        raise DataError(f"{path}: not a HITW weight archive")
    version, count = struct.unpack_from("<HI", head, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported archive version {version}")

    def take(fmt):
        data = fh.read(struct.calcsize(fmt))
        if len(data) != struct.calcsize(fmt):
            raise DataError(f"{path}: archive truncated inside the manifest")
        return struct.unpack(fmt, data)

    entries = {}
    for _ in range(count):
        (name_len,) = take("<H")
        try:
            name = take(f"<{name_len}s")[0].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: malformed archive manifest ({exc})") from exc
        code, ndim = take("<BB")
        shape = take(f"<{ndim}I")
        if code not in _DTYPE_CODES:
            raise DataError(f"{path}: unknown dtype code {code} for tensor {name!r}")
        if name in entries:
            raise DataError(f"{path}: tensor {name!r} appears twice in the manifest")
        entries[name] = (_DTYPE_CODES[code], shape)
    return entries


def save_weights(path, params: ModelParams) -> None:
    """Write the tree as a HITW archive with every tensor in the config dtype."""
    dt = params.config.np_dtype
    write_archive(path, [(name, a.astype(dt, copy=False)) for name, a in named_arrays(params)])


def load_weights(path, config: ModelConfig) -> ModelParams:
    """Rebuild a parameter tree from an archive, validating against config.

    Every name and shape is checked against the config's tree before a
    payload byte is read. Each tensor is then read straight into its slot
    (through one scratch tensor when stored in the other dtype) under a
    running CRC32, so the weights are held once.
    """
    params = zero_weights(config)
    slots = dict(named_arrays(params))
    with open(path, "rb") as fh:
        entries = _read_manifest(fh, path)
        missing = slots.keys() - entries.keys()
        extra = entries.keys() - slots.keys()
        if missing or extra:
            raise ShapeError(
                f"{path}: archive does not match config {config.variant!r} "
                f"(missing {sorted(missing)[:3]}, unexpected {sorted(extra)[:3]})"
            )
        for name, (_, shape) in entries.items():
            if shape != slots[name].shape:
                raise ShapeError(
                    f"{path}: tensor {name!r} has shape {shape}, "
                    f"config {config.variant!r} expects {slots[name].shape}"
                )
        crc = 0
        for name, (dtype, shape) in entries.items():
            slot = slots[name]
            buf = slot if slot.dtype == dtype else np.empty(shape, dtype=dtype)
            if fh.readinto(buf) != buf.nbytes:
                raise DataError(f"{path}: payload truncated at tensor {name!r}")
            crc = zlib.crc32(buf, crc)
            if buf is not slot:
                slot[...] = buf
        trailer = fh.read(5)
    if len(trailer) != 4:
        raise DataError(f"{path}: archive does not end in a 4-byte checksum after the payload")
    if crc != struct.unpack("<I", trailer)[0]:
        raise DataError(f"{path}: payload checksum mismatch, archive is corrupt")
    return params
