import numpy as np
import pytest

from mismatch.data import (AugmentConfig, Case, CaseSet, SliceStream,
                           casewise_normalize, filter_foreground,
                           gen_caseset, gen_synthetic_case, load_caseset,
                           make_streams, read_tensor, save_caseset,
                           split_counts, write_tensor)
from mismatch.errors import ConfigError, FormatError, ParameterError


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
        np.testing.assert_allclose(a.image, b.image, atol=1e-7)  # f32 on disk
        np.testing.assert_array_equal(a.mask, b.mask)


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


def test_gen_caseset_assigns_labels_to_split():
    caseset = gen_caseset(seed=2, kind="tubes", n_cases=10, slices=1, size=8,
                          noise_sigma=0.2)
    for i in caseset.split["labelled_train"]:
        assert caseset.cases[i].labelled
    for name in ("unlabelled_train", "validation", "test"):
        for i in caseset.split[name]:
            assert not caseset.cases[i].labelled
