import tracemalloc

import numpy as np
import pytest

from mismatch.data import (BLOB_OBJECT_BYTES, BLOB_WORKING_BYTES,
                           CASE_OBJECT_BYTES, TUBE_ROW_BYTES,
                           TUBE_WORKING_BYTES, AugmentConfig, Case, CaseSet,
                           SliceStream, _tube_slice,
                           casewise_normalize, filter_foreground, gen_caseset,
                           gen_synthetic_case, load_caseset, make_streams,
                           read_tensor, save_caseset, split_counts,
                           write_tensor)
from mismatch.errors import ConfigError, FormatError, ParameterError
from oracles import dense_tube_slice, windowed_tube_slice


# ---------------------------------------------------------------------------
# synthetic generation

def test_generation_is_deterministic_per_seed():
    a = gen_synthetic_case(5, "tubes", slices=3, size=16, noise_sigma=0.5)
    b = gen_synthetic_case(5, "tubes", slices=3, size=16, noise_sigma=0.5)
    np.testing.assert_array_equal(a.image, b.image)
    np.testing.assert_array_equal(a.mask, b.mask)
    c = gen_synthetic_case(6, "tubes", slices=3, size=16, noise_sigma=0.5)
    assert not np.array_equal(a.image, c.image)


def test_noiseless_image_equals_mask():
    for kind in ("tubes", "blobs"):
        case = gen_synthetic_case(1, kind, slices=2, size=16, noise_sigma=0.0)
        np.testing.assert_array_equal(case.image, case.mask)


def test_masks_are_binary_and_non_empty():
    rng_seeds = range(8)
    for seed in rng_seeds:
        case = gen_synthetic_case(seed, "blobs", slices=2, size=16,
                                  noise_sigma=1.0)
        assert case.image.shape == (2, 1, 16, 16)
        assert case.mask.shape == (2, 1, 16, 16)
        assert set(np.unique(case.mask)) <= {0.0, 1.0}
        assert all(case.mask[s].sum() > 0 for s in range(2))


def test_kinds_differ():
    tubes = gen_synthetic_case(2, "tubes", 2, 16, 0.0)
    blobs = gen_synthetic_case(2, "blobs", 2, 16, 0.0)
    assert not np.array_equal(tubes.mask, blobs.mask)


def test_generation_validation():
    with pytest.raises(ParameterError):
        gen_synthetic_case(0, "rings", 2, 16, 0.0)
    with pytest.raises(ParameterError):
        gen_synthetic_case(0, "tubes", 2, 30, 0.0)  # not divisible by 4
    with pytest.raises(ParameterError):
        gen_synthetic_case(0, "tubes", 0, 16, 0.0)
    with pytest.raises(ParameterError):
        gen_synthetic_case(0, "tubes", 2, 16, -0.1)


@pytest.mark.parametrize("size,seeds", [(4, 60), (8, 60), (12, 60),
                                        (16, 60), (32, 60), (64, 20),
                                        (128, 3)])
def test_tube_slice_equals_the_dense_rasteriser(size, seeds):
    # every pixel within the radius of a curve point lies in that point's
    # window, so the windowed masks are the dense ones, from the same draws
    for seed in range(seeds):
        windowed = np.random.default_rng(seed)
        dense = np.random.default_rng(seed)
        for _ in range(3):
            np.testing.assert_array_equal(_tube_slice(windowed, size),
                                          dense_tube_slice(dense, size))
            assert windowed.bit_generator.state == dense.bit_generator.state


@pytest.mark.parametrize("size", [256, 512])
@pytest.mark.parametrize("noise", [0.0, 0.8])
def test_tube_cases_are_bitwise_the_windowed_rasteriser(size, noise):
    # where the dense rasteriser cannot run, the earlier windowed form is
    # the reference: the same masks and images slice for slice, from the
    # same draws, leaving the case's generator where it leaves its own
    for seed in range(3):
        rng = np.random.default_rng(seed)  # default_rng hands it back as is
        case = gen_synthetic_case(rng, "tubes", 2, size, noise)
        ref = np.random.default_rng(seed)
        for s in range(2):
            m = windowed_tube_slice(ref, size)
            assert m.any()  # so gen_synthetic_case drew it once
            image = m.astype(np.float64)
            if noise > 0:
                image += ref.normal(0.0, noise, (size, size))
            np.testing.assert_array_equal(case.mask[s, 0], m)
            np.testing.assert_array_equal(case.image[s, 0], image)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_a_512_tube_case_draws_in_a_small_working_set():
    # the dense rasteriser's three (512, 512, 2048) float64 arrays would
    # hold 12.9 GB; the case's pixels and the working set hold 8 MiB
    tracemalloc.start()
    try:
        case = gen_synthetic_case(0, "tubes", 1, 512, 0.8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert case.mask.sum() > 0
    assert peak < 2 * (16 + TUBE_WORKING_BYTES) * 512 ** 2


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("size", [32, 64, 128, 256, 512])
def test_a_tube_case_peaks_within_its_counted_bytes(size):
    # gen_caseset counts a one-slice tube case as its pixels (16 B each),
    # the slice's canvas and noise and its curves' point windows
    counted = (16 + TUBE_WORKING_BYTES) * size ** 2 + TUBE_ROW_BYTES * size
    # a first case also traces numpy's one-off lazy imports and caches
    gen_synthetic_case(0, "tubes", 1, 4, 0.8)
    for seed in range(5):
        for noise in (0.0, 0.8):
            peak = _traced_peak(gen_synthetic_case, seed, "tubes", 1, size,
                                noise)
            assert peak <= counted, (seed, noise)


@pytest.mark.parametrize("slices,size", [(1, 4), (1, 16), (1, 64), (1, 256),
                                         (3, 8), (3, 64)])
def test_a_blob_case_peaks_within_its_counted_bytes(slices, size):
    # gen_caseset counts a blob case as its pixels (16 B each) and objects,
    # and the drawing of one slice as its arrays and their objects
    counted = (16 * slices * size ** 2 + CASE_OBJECT_BYTES
               + BLOB_WORKING_BYTES * size ** 2 + BLOB_OBJECT_BYTES)
    gen_synthetic_case(0, "blobs", 1, 4, 0.8)
    for seed in range(5):
        for noise in (0.0, 0.8):
            peak = _traced_peak(gen_synthetic_case, seed, "blobs", slices,
                                size, noise)
            assert peak <= counted, (seed, noise, peak, counted)


@pytest.mark.parametrize("kind,n_cases,slices,size", [
    ("tubes", 1000, 1, 4), ("blobs", 2000, 1, 16), ("tubes", 1000, 2, 16)])
def test_a_caseset_keeps_its_counted_bytes_per_case(kind, n_cases, slices,
                                                    size):
    # beyond its pixels, a generated set peaks within CASE_OBJECT_BYTES per
    # case (its Case, its arrays' objects and its seed sequence), the
    # drawing of a slice included
    gen_caseset(0, kind, 4, 1, 4, 0.8)
    peak = _traced_peak(gen_caseset, 0, kind, n_cases, slices, size, 0.8)
    per_case = (peak - n_cases * 16 * slices * size ** 2) / n_cases
    assert per_case <= CASE_OBJECT_BYTES, per_case


def test_noise_beyond_float32_is_refused():
    # a file holds float32, where such a pixel would read inf
    with pytest.raises(ParameterError, match="beyond the float32 range"):
        gen_synthetic_case(0, "tubes", 1, 8, 1e308)
    with pytest.raises(ParameterError, match="beyond the float32 range"):
        gen_synthetic_case(0, "blobs", 1, 8, 1e39)
    case = gen_synthetic_case(0, "blobs", 1, 8, 1e37)
    assert np.isfinite(case.image.astype(np.float32)).all()


# ---------------------------------------------------------------------------
# preprocessing

def test_casewise_normalize_standardises():
    case = gen_synthetic_case(3, "tubes", 4, 16, noise_sigma=1.0)
    out = casewise_normalize(case)
    assert abs(out.image.mean()) < 1e-10
    assert abs(out.image.std() - 1.0) < 1e-10
    np.testing.assert_array_equal(out.mask, case.mask)
    again = casewise_normalize(out)
    np.testing.assert_allclose(again.image, out.image, atol=1e-12)


def test_casewise_normalize_constant_channel_maps_to_zero():
    case = Case("flat", np.full((2, 1, 4, 4), 7.0), np.zeros((2, 1, 4, 4)),
                labelled=True)
    out = casewise_normalize(case)
    np.testing.assert_array_equal(out.image, np.zeros_like(case.image))


def test_filter_foreground_is_strict():
    mask = np.zeros((3, 1, 4, 4))
    mask[0, 0, 0, :2] = 1.0   # 2 pixels
    mask[1, 0, 0, :3] = 1.0   # 3 pixels
    case = Case("c", np.zeros_like(mask), mask, labelled=True)
    assert filter_foreground(case, 0) == [0, 1]
    assert filter_foreground(case, 2) == [1]
    assert filter_foreground(case, 3) == []


# ---------------------------------------------------------------------------
# streams

def _toy_caseset(n_lab_slices=6, n_unlab_cases=2, size=8):
    lab = gen_synthetic_case(10, "tubes", n_lab_slices, size, 0.5,
                             case_id="lab", labelled=True)
    cases = [lab]
    split = {"labelled_train": [0], "unlabelled_train": []}
    for i in range(n_unlab_cases):
        cases.append(gen_synthetic_case(20 + i, "tubes", 4, size, 0.5,
                                        case_id=f"un{i}"))
        split["unlabelled_train"].append(1 + i)
    return CaseSet(cases=cases, split=split).validate()


def test_stream_epoch_covers_every_slice_once():
    caseset = _toy_caseset()
    _, unlab = make_streams(caseset, labelled_slices=4, seed=0)
    seen = []
    for _ in range(unlab.epoch_len):
        xb, mb = unlab.next_batch()
        assert mb is None
        seen.append(xb[0])
    assert len(seen) == 8
    pool = np.stack([c.image[s] for c in caseset.cases_in("unlabelled_train")
                     for s in range(c.image.shape[0])]).astype(np.float32)
    got = np.stack(seen)
    # same multiset of slices, shuffled order
    assert sorted(map(float, got.sum(axis=(1, 2, 3)))) == pytest.approx(
        sorted(map(float, pool.sum(axis=(1, 2, 3)))))
    for g in got:
        assert any(np.array_equal(g, p) for p in pool)


def test_stream_reshuffles_between_epochs():
    caseset = _toy_caseset()
    _, unlab = make_streams(caseset, labelled_slices=4, seed=0)
    first = [unlab.next_batch()[0] for _ in range(unlab.epoch_len)]
    second = [unlab.next_batch()[0] for _ in range(unlab.epoch_len)]
    assert not all(np.array_equal(a, b) for a, b in zip(first, second))


def test_streams_are_deterministic_and_seed_sensitive():
    caseset = _toy_caseset()
    lab1, _ = make_streams(caseset, labelled_slices=4, seed=3)
    lab2, _ = make_streams(caseset, labelled_slices=4, seed=3)
    for _ in range(6):
        a, am = lab1.next_batch()
        b, bm = lab2.next_batch()
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(am, bm)
    lab3, _ = make_streams(caseset, labelled_slices=4, seed=4)
    c, _ = lab3.next_batch()
    a, _ = lab1.next_batch()
    assert c.shape == a.shape


def test_labelled_budget_enforced():
    caseset = _toy_caseset(n_lab_slices=3)
    with pytest.raises(ConfigError, match="budget"):
        make_streams(caseset, labelled_slices=50, seed=0)
    with pytest.raises(ConfigError):
        make_streams(caseset, labelled_slices=0, seed=0)


def test_batch_larger_than_either_pool_rejected():
    caseset = _toy_caseset(n_unlab_cases=1)  # 6 labelled, 4 unlabelled
    make_streams(caseset, labelled_slices=4, seed=0, batch_size=4)
    with pytest.raises(ConfigError, match="labelled pool of 4"):
        make_streams(caseset, labelled_slices=4, seed=0, batch_size=5)
    with pytest.raises(ConfigError, match="unlabelled pool of 4"):
        make_streams(caseset, labelled_slices=6, seed=0, batch_size=5)


def test_unlabelled_stream_absent_when_split_empty():
    lab = gen_synthetic_case(10, "tubes", 4, 8, 0.5, case_id="lab",
                             labelled=True)
    caseset = CaseSet(cases=[lab], split={"labelled_train": [0]})
    _, unlab = make_streams(caseset, labelled_slices=2, seed=0)
    assert unlab is None


def test_flip_augment_mirrors_image_and_mask_jointly():
    caseset = _toy_caseset()
    aug = AugmentConfig(flip=True, noise_sigma=0.0)
    lab, _ = make_streams(caseset, labelled_slices=4, seed=1,
                          labelled_augment=aug)
    plain, _ = make_streams(caseset, labelled_slices=4, seed=1)
    pool = [plain.next_batch() for _ in range(plain.epoch_len)]
    flips = straights = 0
    for _ in range(40):
        xa, ya = lab.next_batch()
        for xp, yp in pool:
            if np.array_equal(xa, xp) and np.array_equal(ya, yp):
                straights += 1
                break
            if (np.array_equal(xa, xp[:, :, :, ::-1])
                    and np.array_equal(ya, yp[:, :, :, ::-1])):
                flips += 1
                break
        else:
            pytest.fail("batch is neither a pool slice nor its mirror")
    assert flips > 0 and straights > 0


def test_noise_augment_touches_image_only():
    caseset = _toy_caseset()
    aug = AugmentConfig(flip=False, noise_sigma=0.3)
    lab, _ = make_streams(caseset, labelled_slices=4, seed=2,
                          labelled_augment=aug)
    plain, _ = make_streams(caseset, labelled_slices=4, seed=2)
    xa, ya = lab.next_batch()
    xp, yp = plain.next_batch()
    assert not np.array_equal(xa, xp)
    np.testing.assert_array_equal(ya, yp)


def test_stream_batching_and_dtype():
    caseset = _toy_caseset()
    lab, unlab = make_streams(caseset, labelled_slices=4, seed=0,
                              batch_size=3)
    assert lab.epoch_len == 2   # ceil(4 / 3)
    assert unlab.epoch_len == 3  # ceil(8 / 3)
    xb, yb = lab.next_batch()
    assert xb.shape == (3, 1, 8, 8) and yb.shape == (3, 1, 8, 8)
    assert xb.dtype == np.float32


# ---------------------------------------------------------------------------
# tensor container

def test_tensor_roundtrip_and_size(tmp_path):
    rng = np.random.default_rng(80)
    arr = rng.standard_normal((3, 1, 5, 7)).astype(np.float32)
    path = tmp_path / "t.mmt"
    write_tensor(path, arr)
    assert path.stat().st_size == 8 + 4 + 4 * arr.ndim + 4 * arr.size
    np.testing.assert_array_equal(read_tensor(path), arr)


def test_tensor_format_errors(tmp_path):
    arr = np.ones((2, 2), dtype=np.float32)
    path = tmp_path / "t.mmt"
    write_tensor(path, arr)
    blob = path.read_bytes()

    bad = tmp_path / "bad.mmt"
    bad.write_bytes(b"XXTENS99" + blob[8:])
    with pytest.raises(FormatError, match="at byte 0"):
        read_tensor(bad)

    short = tmp_path / "short.mmt"
    short.write_bytes(blob[:-4])
    with pytest.raises(FormatError, match="payload"):
        read_tensor(short)

    long = tmp_path / "long.mmt"
    long.write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(FormatError, match="payload"):
        read_tensor(long)


# ---------------------------------------------------------------------------
# case sets on disk

def test_caseset_roundtrip(tmp_path):
    caseset = gen_caseset(seed=1, kind="blobs", n_cases=5, slices=2, size=8,
                          noise_sigma=0.4)
    manifest = save_caseset(tmp_path / "data", caseset)
    back = load_caseset(manifest)
    assert len(back.cases) == 5
    assert {k: len(v) for k, v in back.split.items()} == {
        k: len(v) for k, v in caseset.split.items()}
    for a, b in zip(caseset.cases, back.cases):
        assert a.case_id == b.case_id
        assert a.labelled == b.labelled
        # a loaded case keeps what its files hold: float32 images, and its
        # 0/1 masks as bool
        assert (b.image.dtype, b.mask.dtype) == (np.float32, bool)
        np.testing.assert_array_equal(b.image, a.image.astype(np.float32))
        np.testing.assert_array_equal(b.mask, a.mask != 0)


@pytest.mark.parametrize("channels", [1, 2])
def test_casewise_normalize_of_a_loaded_case_casts_its_float64_result(
        tmp_path, channels):
    # a loaded float32 case normalises to bitwise the float32 cast of what
    # its float64 copy normalises to, the values every reader forwards
    rng = np.random.default_rng(channels)
    image = rng.standard_normal((3, channels, 8, 8)) * 3.0 + 1.0
    mask = (rng.random((3, 1, 8, 8)) < 0.3).astype(np.float64)
    manifest = save_caseset(tmp_path / "data", CaseSet(
        [Case("c", image, mask, True)], {"test": [0]}))
    (case,) = load_caseset(manifest).cases
    got = casewise_normalize(case).image
    want = casewise_normalize(Case("c", case.image.astype(np.float64),
                                   case.mask, True)).image
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got.view(np.uint32),
                                  want.astype(np.float32).view(np.uint32))


def test_manifest_errors(tmp_path):
    with pytest.raises(ConfigError, match="manifest"):
        load_caseset(tmp_path / "absent.txt")
    caseset = gen_caseset(seed=1, kind="tubes", n_cases=4, slices=1, size=8,
                          noise_sigma=0.0)
    manifest = save_caseset(tmp_path / "d", caseset)
    text = open(manifest).read()

    bad1 = tmp_path / "d" / "m1.txt"
    bad1.write_text("only_two fields\n")
    with pytest.raises(FormatError, match="line 1"):
        load_caseset(bad1)

    bad2 = tmp_path / "d" / "m2.txt"
    bad2.write_text(text.replace(" test", " holdout"))
    with pytest.raises(FormatError, match="split"):
        load_caseset(bad2)

    bad3 = tmp_path / "d" / "m3.txt"
    bad3.write_text(text.replace(" 1 ", " yes ", 1))
    with pytest.raises(FormatError, match="labelled"):
        load_caseset(bad3)

    # the same case twice, under two spellings of its path
    bad4 = tmp_path / "d" / "m4.txt"
    bad4.write_text(text + "./" + text.splitlines()[-1] + "\n")
    with pytest.raises(FormatError, match="line 5: .* already listed on "
                                          "line 4"):
        load_caseset(bad4)


@pytest.mark.parametrize("mask_shape", [(1, 0, 8, 8), (1, 2, 8, 8),
                                        (2, 1, 8, 8), (1, 1, 8)])
def test_manifest_rejects_mask_not_shaped_like_the_image(tmp_path,
                                                         mask_shape):
    write_tensor(tmp_path / "c.image.mmt", np.zeros((1, 1, 8, 8)))
    write_tensor(tmp_path / "c.mask.mmt", np.zeros(mask_shape))
    (tmp_path / "m.txt").write_text("c.image.mmt 1 test\n")
    with pytest.raises(FormatError, match="disagree"):
        load_caseset(tmp_path / "m.txt")


def test_caseset_split_validation():
    case = gen_synthetic_case(0, "tubes", 1, 8, 0.0, case_id="c")
    with pytest.raises(ConfigError):
        CaseSet(cases=[case], split={"extra": [0]}).validate()
    with pytest.raises(ConfigError):
        CaseSet(cases=[case], split={"test": [1]}).validate()
    with pytest.raises(ConfigError):
        CaseSet(cases=[case], split={"test": [0],
                                     "validation": [0]}).validate()
    with pytest.raises(ConfigError):
        CaseSet(cases=[case], split={"test": [0]}).cases_in("validation")


def test_split_counts_ratio():
    assert split_counts(10) == {"labelled_train": 1, "unlabelled_train": 3,
                                "validation": 1, "test": 5}
    counts = split_counts(4)
    assert all(v >= 1 for v in counts.values())
    assert sum(counts.values()) == 4
    with pytest.raises(ConfigError):
        split_counts(3)


@pytest.mark.parametrize("setting,message", [
    ({"slices": 0}, "slices must be >= 1"),
    ({"size": 0}, "size must be one of"),
    ({"kind": "cubes"}, "unknown kind"),
    ({"noise_sigma": float("nan")}, "noise_sigma must be finite"),
])
def test_gen_caseset_checks_case_settings_before_spawning(monkeypatch,
                                                          setting, message):
    # a billion cases would spawn a billion seed sequences, and with no
    # pixels the memory bound alone would not refuse them first
    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError("spawned seed sequences")

    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
    settings = {"kind": "tubes", "slices": 1, "size": 8, "noise_sigma": 0.0,
                **setting}
    with pytest.raises(ParameterError, match=message):
        gen_caseset(0, n_cases=10**9, **settings)


@pytest.mark.parametrize("n_cases", [3, 0, -5])
def test_gen_caseset_refuses_fewer_than_4_cases_first(monkeypatch, n_cases):
    # no split ratio covers fewer than 4 cases: a setting, like a bad size
    def never(*args, **kwargs):
        raise AssertionError("ran before the case count was checked")

    monkeypatch.setattr("mismatch.data.check_memory", never)
    monkeypatch.setattr(np.random, "SeedSequence", never)
    with pytest.raises(ParameterError, match="need at least 4 cases"):
        gen_caseset(0, "tubes", n_cases, 1, 8, 0.0)


def test_gen_caseset_assigns_labels_to_split():
    caseset = gen_caseset(seed=2, kind="tubes", n_cases=10, slices=1, size=8,
                          noise_sigma=0.2)
    for i in caseset.split["labelled_train"]:
        assert caseset.cases[i].labelled
    for name in ("unlabelled_train", "validation", "test"):
        for i in caseset.split[name]:
            assert not caseset.cases[i].labelled
