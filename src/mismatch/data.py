"""Synthetic cases, preprocessing, slice streams, and on-disk containers.

Two slice families are generated: "tubes" (smooth bright curves, a vessel
stand-in) and "blobs" (jittered ellipses, a lesion stand-in). Foreground
sits +1.0 over a zero background before additive Gaussian noise, and the
stored mask is the clean rasterisation.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, ParameterError

TENSOR_MAGIC = b"MMTENS01"
SPLIT_NAMES = ("labelled_train", "unlabelled_train", "validation", "test")
KINDS = ("tubes", "blobs")
IMAGE_SUFFIX = ".image.mmt"
MASK_SUFFIX = ".mask.mmt"


@dataclass
class Case:
    case_id: str
    image: np.ndarray   # (S, C, H, W) float
    mask: np.ndarray    # (S, 1, H, W) float in {0, 1}
    labelled: bool


@dataclass
class CaseSet:
    cases: list[Case]
    split: dict[str, list[int]] = field(default_factory=dict)

    def validate(self) -> "CaseSet":
        seen: set[int] = set()
        for name, idxs in self.split.items():
            if name not in SPLIT_NAMES:
                raise ConfigError(f"unknown split {name!r}")
            for i in idxs:
                if not 0 <= i < len(self.cases):
                    raise ConfigError(f"split {name} references case {i}")
                if i in seen:
                    raise ConfigError(f"case {i} appears in two splits")
                seen.add(i)
        return self

    def cases_in(self, split_name: str) -> list[Case]:
        if split_name not in self.split:
            raise ConfigError(f"case set has no split {split_name!r}; have "
                              f"{sorted(self.split)}")
        return [self.cases[i] for i in self.split[split_name]]


# ---------------------------------------------------------------------------
# synthetic slices

def _tube_slice(rng, size: int) -> np.ndarray:
    """1-3 smooth curves (quadratic Bezier) stamped with radius 1-3 px."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        p0 = rng.uniform(0, size - 1, 2)
        p2 = rng.uniform(0, size - 1, 2)
        while np.hypot(*(p2 - p0)) < size / 2:
            p2 = rng.uniform(0, size - 1, 2)
        p1 = rng.uniform(0, size - 1, 2)
        radius = rng.uniform(1.0, 3.0)
        t = np.linspace(0.0, 1.0, 4 * size)[:, None]
        pts = (1 - t) ** 2 * p0 + 2 * t * (1 - t) * p1 + t ** 2 * p2
        d2 = ((yy[..., None] - pts[:, 0]) ** 2
              + (xx[..., None] - pts[:, 1]) ** 2)
        mask |= d2.min(axis=-1) <= radius * radius
    return mask


def _blob_slice(rng, size: int) -> np.ndarray:
    """1-2 ellipses with low-frequency radial boundary jitter."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(int(rng.integers(1, 3))):
        cy, cx = rng.uniform(0.3, 0.7, 2) * size
        ay, ax = rng.uniform(size / 8, size / 4, 2)
        theta = rng.uniform(0, math.pi)
        coeffs = rng.normal(0.0, 0.08, 3)
        phases = rng.uniform(0, 2 * math.pi, 3)
        ct, st = math.cos(theta), math.sin(theta)
        u = ((yy - cy) * ct + (xx - cx) * st) / ay
        v = (-(yy - cy) * st + (xx - cx) * ct) / ax
        rad = np.hypot(u, v)
        ang = np.arctan2(v, u)
        jitter = 1.0
        for k, (c, ph) in enumerate(zip(coeffs, phases), start=1):
            jitter = jitter + c * np.cos(k * ang + ph)
        mask |= rad <= jitter
    return mask


def gen_synthetic_case(seed, kind: str, slices: int, size: int,
                       noise_sigma: float, case_id: str = "case",
                       labelled: bool = False) -> Case:
    """Deterministic synthetic case.

    Foreground is +1.0 over zero background; Gaussian noise of the given
    sigma is added on top, so with noise_sigma=0 the image equals the mask.
    Slices are redrawn until the mask is non-empty.
    """
    if kind not in KINDS:
        raise ParameterError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if size < 4 or size % 4:
        raise ParameterError(f"size must be one of 4, 8, 12, ..., got {size}")
    if slices < 1:
        raise ParameterError("slices must be >= 1")
    if not 0 <= noise_sigma < math.inf:
        raise ParameterError("noise_sigma must be finite and >= 0")
    rng = np.random.default_rng(seed)
    draw = _tube_slice if kind == "tubes" else _blob_slice
    images = np.empty((slices, 1, size, size), dtype=np.float64)
    masks = np.empty((slices, 1, size, size), dtype=np.float64)
    for s in range(slices):
        for _ in range(100):
            m = draw(rng, size)
            if m.any():
                break
        else:
            raise ConfigError("failed to draw a non-empty mask in 100 tries")
        img = m.astype(np.float64)
        if noise_sigma > 0:
            img = img + rng.normal(0.0, noise_sigma, (size, size))
        images[s, 0] = img
        masks[s, 0] = m
    return Case(case_id=case_id, image=images, mask=masks, labelled=labelled)


# ---------------------------------------------------------------------------
# preprocessing

def casewise_normalize(case: Case) -> Case:
    """Zero-mean/unit-std per channel over the whole case; the std is
    floored at 1e-8 so constant channels map to zeros."""
    img = case.image
    out = np.empty_like(img)
    for c in range(img.shape[1]):
        chan = img[:, c]
        std = chan.std()
        out[:, c] = (chan - chan.mean()) / max(std, 1e-8)
    return Case(case.case_id, out, case.mask, case.labelled)


def filter_foreground(case: Case, min_pixels: int) -> list[int]:
    """Slice indices whose mask has strictly more than min_pixels set."""
    return [s for s in range(case.mask.shape[0])
            if case.mask[s].sum() > min_pixels]


# ---------------------------------------------------------------------------
# streams

@dataclass
class AugmentConfig:
    flip: bool = False          # horizontal flip, applied jointly to image+mask
    noise_sigma: float = 0.0    # additive Gaussian noise on the image only


class SliceStream:
    """Deterministic batched iterator over a fixed slice pool.

    The pool order is reshuffled from the stream's own generator at every
    wrap, so an epoch's worth of batches covers each slice exactly once
    and independent streams never share randomness. Batches are float32,
    the training dtype.
    """

    def __init__(self, items: list[tuple[np.ndarray, np.ndarray | None]],
                 batch_size: int, rng, augment: AugmentConfig | None = None):
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        self._items = items
        self._batch = batch_size
        self._rng = rng
        self._augment = augment
        self._order: list[int] = []
        self._pos = 0

    @property
    def epoch_len(self) -> int:
        if not self._items:
            return 0
        return -(-len(self._items) // self._batch)

    def _next_index(self) -> int:
        if self._pos >= len(self._order):
            self._order = list(self._rng.permutation(len(self._items)))
            self._pos = 0
        i = self._order[self._pos]
        self._pos += 1
        return i

    def next_batch(self):
        if not self._items:
            raise ConfigError("stream has no slices")
        imgs, masks = [], []
        has_mask = self._items[0][1] is not None
        for _ in range(self._batch):
            img, msk = self._items[self._next_index()]
            img = img.astype(np.float32)
            msk = None if msk is None else msk.astype(np.float32)
            if self._augment is not None:
                img, msk = self._apply_augment(img, msk)
            imgs.append(img)
            if has_mask:
                masks.append(msk)
        xb = np.stack(imgs)
        return xb, (np.stack(masks) if has_mask else None)

    def _apply_augment(self, img, msk):
        if self._augment.flip and self._rng.random() < 0.5:
            img = img[:, :, ::-1].copy()
            if msk is not None:
                msk = msk[:, :, ::-1].copy()
        if self._augment.noise_sigma > 0:
            img = img + self._rng.normal(
                0.0, self._augment.noise_sigma, img.shape).astype(np.float32)
        return img, msk


def make_streams(caseset: CaseSet, labelled_slices: int, seed: int,
                 batch_size: int = 1,
                 labelled_augment: AugmentConfig | None = None):
    """Build the labelled and unlabelled training streams.

    The labelled pool is a fixed budget of labelled_slices foreground
    slices drawn deterministically (without replacement) from the
    labelled_train cases, augmented by labelled_augment; unlabelled slices
    are never augmented, and masks of unlabelled_train cases never read.
    Returns (labelled_stream, unlabelled_stream); the unlabelled stream is
    None when the split is absent or empty. A batch_size larger than
    either pool is rejected: such a batch could only repeat slices.
    """
    if labelled_slices < 1:
        raise ConfigError("labelled_slices must be >= 1")
    if batch_size > labelled_slices:
        raise ConfigError(f"batch_size {batch_size} exceeds the labelled "
                          f"pool of {labelled_slices} slices")
    pool: list[tuple[np.ndarray, np.ndarray]] = []
    for case in caseset.cases_in("labelled_train"):
        for s in filter_foreground(case, 0):
            pool.append((case.image[s], case.mask[s]))
    if labelled_slices > len(pool):
        raise ConfigError(f"labelled budget {labelled_slices} exceeds the "
                          f"{len(pool)} available foreground slices")
    pick = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    chosen = pick.choice(len(pool), size=labelled_slices, replace=False)
    labelled_items = [pool[i] for i in chosen]
    labelled = SliceStream(labelled_items, batch_size,
                           np.random.default_rng(np.random.SeedSequence([seed, 1])),
                           augment=labelled_augment)

    unlabelled = None
    if "unlabelled_train" in caseset.split and caseset.split["unlabelled_train"]:
        items = [(case.image[s], None)
                 for case in caseset.cases_in("unlabelled_train")
                 for s in range(case.image.shape[0])]
        if batch_size > len(items):
            raise ConfigError(f"batch_size {batch_size} exceeds the "
                              f"unlabelled pool of {len(items)} slices")
        unlabelled = SliceStream(items, batch_size,
                                 np.random.default_rng(np.random.SeedSequence([seed, 2])))
    return labelled, unlabelled


# ---------------------------------------------------------------------------
# files and binary records

def write_atomic(path, payload: bytes) -> None:
    """Write a file whole or not at all: the payload goes to a temporary
    name in the same directory, then one rename replaces `path`. Every
    file the package writes is written here, with a plain open()'s mode."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    f = open(tmp, "xb")
    try:
        with f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def pack(*fields) -> bytearray:
    """Encode fields as ByteCursor reads them: bytes verbatim, an int as a
    little-endian u32, a str as its u32 length and UTF-8 bytes, an array as
    one record: u32 rank | u32 dims... | float32 little-endian payload."""
    out = bytearray()
    for f in fields:
        if isinstance(f, str):
            f = f.encode("utf-8")
            out += struct.pack("<I", len(f))
        elif isinstance(f, np.ndarray):
            out += struct.pack(f"<{f.ndim + 1}I", f.ndim, *f.shape)
            f = np.ascontiguousarray(f, dtype="<f4").tobytes()
        elif isinstance(f, int):
            f = struct.pack("<I", f)
        out += f
    return out


class ByteCursor:
    """Reads a binary file front to back from just past its magic. Every
    short read or undecodable field is a FormatError naming the file and
    the byte offset it was found at."""

    def __init__(self, path, magic: bytes):
        with open(path, "rb") as f:
            self.buf = f.read()
        if self.buf[:len(magic)] != magic:
            raise FormatError(f"bad magic in {path}", 0)
        self.path, self.pos = path, len(magic)

    def take(self, n: int, what: str) -> int:  # returns the start offset
        if self.pos + n > len(self.buf):
            raise FormatError(f"{self.path} truncated reading {what}",
                              self.pos)
        self.pos += n
        return self.pos - n

    def u32(self, what: str) -> int:
        return struct.unpack_from("<I", self.buf, self.take(4, what))[0]

    def text(self, what: str) -> str:
        start = self.take(self.u32(f"{what} length"), what)
        try:
            return self.buf[start:self.pos].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.path}: {what} is not valid UTF-8",
                              start + e.start) from None

    def array(self, what: str) -> np.ndarray:
        rank = self.u32(f"{what} rank")
        dims = struct.unpack_from(f"<{rank}I", self.buf,
                                  self.take(4 * rank, f"{what} dims"))
        numel = math.prod(dims)  # exact: u32 dims overflow int64 products
        start = self.take(4 * numel, f"{what} payload")
        try:
            return np.frombuffer(self.buf, dtype="<f4", count=numel,
                                 offset=start).reshape(dims).copy()
        except ValueError:  # an empty array numpy cannot shape
            raise FormatError(f"{self.path}: {what} dims {dims} do not fit "
                              f"an array", start) from None

    def end(self) -> None:
        if self.pos != len(self.buf):
            raise FormatError(f"{self.path} has trailing bytes after the last "
                              f"array payload", self.pos)


def write_tensor(path, arr: np.ndarray) -> None:
    """Binary layout: magic "MMTENS01" | one array record. File size is
    8 + 4 + 4*rank + 4*numel."""
    write_atomic(path, pack(TENSOR_MAGIC, np.asarray(arr)))


def read_tensor(path) -> np.ndarray:
    cursor = ByteCursor(path, TENSOR_MAGIC)
    arr = cursor.array("array")
    cursor.end()
    return arr


# ---------------------------------------------------------------------------
# case-set on disk

def save_caseset(directory, caseset: CaseSet) -> str:
    """Write every case as an image/mask tensor pair plus a manifest.

    Manifest lines are "path labelled split", one per case, paths relative
    to the manifest. Image paths end in IMAGE_SUFFIX; the mask path swaps
    that suffix for MASK_SUFFIX. Returns the manifest path.
    """
    caseset.validate()
    os.makedirs(directory, exist_ok=True)
    index_to_split = {}
    for name, idxs in caseset.split.items():
        for i in idxs:
            index_to_split[i] = name
    lines = []
    for i, case in enumerate(caseset.cases):
        split = index_to_split.get(i)
        if split is None:
            raise ConfigError(f"case {i} ({case.case_id}) is in no split")
        image = case.case_id + IMAGE_SUFFIX
        write_tensor(os.path.join(directory, image), case.image)
        write_tensor(os.path.join(directory, case.case_id + MASK_SUFFIX),
                     case.mask)
        lines.append(f"{image} {1 if case.labelled else 0} {split}")
    manifest = os.path.join(directory, "manifest.txt")
    write_atomic(manifest, ("\n".join(lines) + "\n").encode("utf-8"))
    return manifest


def load_caseset(manifest_path) -> CaseSet:
    if not os.path.exists(manifest_path):
        raise ConfigError(f"manifest not found: {manifest_path}")
    base = os.path.dirname(os.path.abspath(manifest_path))
    cases: list[Case] = []
    split: dict[str, list[int]] = {}
    listed: dict[str, int] = {}  # normalised image path -> its line
    # bytes that are not UTF-8 read as U+FFFD: a bad field or a missing file
    with open(manifest_path, encoding="utf-8", errors="replace") as f:
        for ln, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"manifest line {ln} needs 'path labelled "
                                  f"split', got {line!r}")
            path, labelled, split_name = parts
            if labelled not in ("0", "1"):
                raise FormatError(f"manifest line {ln}: labelled flag must "
                                  f"be 0 or 1")
            if split_name not in SPLIT_NAMES:
                raise FormatError(f"manifest line {ln}: unknown split "
                                  f"{split_name!r}")
            if not path.endswith(IMAGE_SUFFIX):
                raise FormatError(f"manifest line {ln}: image path {path!r} "
                                  f"must end in {IMAGE_SUFFIX}")
            first = listed.setdefault(os.path.normpath(path), ln)
            if first != ln:
                raise FormatError(f"manifest line {ln}: case {path!r} is "
                                  f"already listed on line {first}")
            case_id = path[:-len(IMAGE_SUFFIX)]
            try:
                image = read_tensor(os.path.join(base, path))
                mask = read_tensor(os.path.join(base, case_id + MASK_SUFFIX))
            except (OSError, ValueError) as e:  # unreadable, NUL in path
                raise FormatError(f"manifest line {ln}: {e}") from None
            if (image.ndim != 4
                    or mask.shape != (image.shape[0], 1) + image.shape[2:]):
                raise FormatError(f"manifest line {ln}: image {image.shape} "
                                  f"and mask {mask.shape} disagree")
            if 0 in image.shape:
                raise FormatError(f"manifest line {ln}: image {image.shape} "
                                  f"has an empty dimension")
            if not np.isfinite(image).all():
                raise FormatError(f"manifest line {ln}: image holds "
                                  f"non-finite values")
            if not ((mask == 0) | (mask == 1)).all():
                raise FormatError(f"manifest line {ln}: mask holds values "
                                  f"other than 0 and 1")
            split.setdefault(split_name, []).append(len(cases))
            cases.append(Case(case_id, image.astype(np.float64),
                              mask.astype(np.float64), labelled == "1"))
    return CaseSet(cases=cases, split=split).validate()


def split_counts(n_cases: int) -> dict[str, int]:
    """Case counts per split at the 1/3/1/5 ratio, every split non-empty."""
    if n_cases < 4:
        raise ConfigError(f"need at least 4 cases to cover all splits, got "
                          f"{n_cases}")
    lab = max(1, n_cases // 10)
    val = max(1, n_cases // 10)
    unlab = max(1, (3 * n_cases) // 10)
    # the others take at most half of 10+ cases and 3-4 of fewer: test >= 1
    return {"labelled_train": lab, "unlabelled_train": unlab,
            "validation": val, "test": n_cases - lab - val - unlab}


def check_memory(nbytes: int, what: str, error=ParameterError) -> None:
    """Refuse, as `error`, a plan of `nbytes` beyond physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        raise error(f"{what}: {nbytes} bytes, over the {memory} bytes of "
                    f"physical memory")


def gen_caseset(seed: int, kind: str, n_cases: int, slices: int, size: int,
                noise_sigma: float) -> CaseSet:
    """Generate a full case set split 1/3/1/5 in generation order."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    counts = split_counts(n_cases)
    # every case keeps a float64 image and mask; Python ints never wrap
    check_memory(n_cases * slices * size * size * 16,
                 f"{n_cases} cases of {slices} {size}x{size} slices")
    ss = np.random.SeedSequence(seed).spawn(n_cases)
    order = [name for name in SPLIT_NAMES for _ in range(counts[name])]
    cases, split = [], {name: [] for name in SPLIT_NAMES}
    for i, (child, split_name) in enumerate(zip(ss, order)):
        case = gen_synthetic_case(child, kind, slices, size, noise_sigma,
                                  case_id=f"case_{i:04d}",
                                  labelled=split_name == "labelled_train")
        split[split_name].append(i)
        cases.append(case)
    return CaseSet(cases=cases, split=split).validate()
