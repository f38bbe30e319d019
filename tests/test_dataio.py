import os
import struct
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tssf import dataio, manifold
from tssf.errors import FormatError, InvalidInput, NotPositiveDefinite


def small_set(rng, c=3, n=40, t=6, sessions=1):
    data = rng.standard_normal((c, n, t))
    labels = np.where(np.arange(t) % 2 == 0, 1, -1)
    session_ids = np.arange(t) % sessions
    names = [f"ch{i}" for i in range(c)]
    return dataio.TrialSet(data=data, labels=labels, session_ids=session_ids, channel_names=names)


class TestTrialSet:
    def test_validation(self, rng):
        with pytest.raises(InvalidInput):
            dataio.TrialSet(
                data=rng.standard_normal((2, 3)),
                labels=[1, -1],
                session_ids=[0, 0],
                channel_names=["a", "b"],
            )
        with pytest.raises(InvalidInput):
            dataio.TrialSet(
                data=rng.standard_normal((2, 3, 2)),
                labels=[1, 2],
                session_ids=[0, 0],
                channel_names=["a", "b"],
            )
        with pytest.raises(InvalidInput, match="one entry per trial"):
            dataio.TrialSet(
                data=rng.standard_normal((2, 3, 2)),
                labels=[1, -1],
                session_ids=[0],
                channel_names=["a", "b"],
            )
        with pytest.raises(InvalidInput, match="one channel name per channel"):
            dataio.TrialSet(
                data=rng.standard_normal((2, 3, 2)),
                labels=[1, -1],
                session_ids=[0, 0],
                channel_names=["a"],
            )

    def test_subset(self, rng):
        ts = small_set(rng, t=6)
        sub = ts.subset([0, 2, 4])
        assert sub.n_trials == 3
        np.testing.assert_array_equal(sub.trial(1), ts.trial(2))
        for empty in ([], np.arange(0)):
            sub = ts.subset(empty)
            assert sub.data.shape == (ts.n_channels, ts.n_samples, 0)
            assert sub.labels.shape == sub.session_ids.shape == (0,)
        with pytest.raises(InvalidInput, match="integers or a mask, got float64"):
            ts.subset([0.0])
        # the first index outside [-T, T) is named, not left to a bare IndexError
        np.testing.assert_array_equal(ts.subset([-6, 5]).labels, ts.labels[[0, 5]])
        for bad, first in [([999], 999), ([0, -7, 6], -7), (np.array([2, 6], dtype=np.uint32), 6)]:
            with pytest.raises(InvalidInput, match=f"^trial index {first} is out of range for 6 "):
                ts.subset(bad)

    def test_trial_index_checked_by_the_count_rule(self, rng):
        ts = small_set(rng, t=20)
        np.testing.assert_array_equal(ts.trial(-20), ts.data[:, :, 0])
        np.testing.assert_array_equal(ts.trial(np.int64(19)), ts.data[:, :, 19])
        # not a bare IndexError from numpy, and True is not trial 1
        for bad, match in [
            (999, r"^trial index must be in \[-20, 19\], got 999$"),
            (-21, r"^trial index must be in \[-20, 19\], got -21$"),
            (2.5, "^trial index must be an integer, got 2.5$"),
            (True, "^trial index must be an integer, got True$"),
        ]:
            with pytest.raises(InvalidInput, match=match):
                ts.trial(bad)

    def test_subset_is_one_contiguous_copy(self, rng):
        ts = small_set(rng, t=7)
        idx = np.array([5, 0, 3, 3])
        sub = ts.subset(idx)
        assert sub.data.flags.c_contiguous and not np.shares_memory(sub.data, ts.data)
        assert sub.data.tobytes() == np.ascontiguousarray(ts.data[:, :, idx]).tobytes()
        np.testing.assert_array_equal(sub.labels, ts.labels[idx])
        np.testing.assert_array_equal(sub.session_ids, ts.session_ids[idx])

    def test_subset_by_boolean_mask(self, rng):
        ts = small_set(rng, t=6, sessions=2)
        mask = np.array([True, False, True, True, False, False])
        sub = ts.subset(mask)
        assert sub.data.flags.c_contiguous
        np.testing.assert_array_equal(sub.data, ts.data[:, :, mask])
        np.testing.assert_array_equal(sub.labels, ts.labels[mask])
        np.testing.assert_array_equal(sub.session_ids, ts.session_ids[mask])
        whole = ts.subset(np.ones(6, dtype=bool))
        np.testing.assert_array_equal(whole.data, ts.data)
        np.testing.assert_array_equal(whole.labels, ts.labels)
        with pytest.raises(InvalidInput):
            ts.subset(np.ones(5, dtype=bool))


class TestEegtFormat:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        ts = small_set(rng, c=4, n=17, t=5, sessions=2)
        ts.channel_names[0] = "Fz(µ)"  # non-ASCII name survives
        path = tmp_path / "trials.eegt"
        dataio.write_trials(ts, path)
        back = dataio.read_trials(path)
        np.testing.assert_array_equal(back.data, ts.data)
        np.testing.assert_array_equal(back.labels, ts.labels)
        np.testing.assert_array_equal(back.session_ids, ts.session_ids)
        assert back.channel_names == ts.channel_names
        # writing again produces identical bytes
        path2 = tmp_path / "again.eegt"
        dataio.write_trials(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_bad_magic(self, tmp_path, rng):
        path = tmp_path / "x.eegt"
        dataio.write_trials(small_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            dataio.read_trials(path)

    def test_bad_version(self, tmp_path, rng):
        path = tmp_path / "x.eegt"
        dataio.write_trials(small_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            dataio.read_trials(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "x.eegt"
        dataio.write_trials(small_set(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            dataio.read_trials(path)
        path.write_bytes(blob[:-1])  # the data tensor whole, a channel name cut
        with pytest.raises(FormatError, match="truncated file: channel name 2 needs"):
            dataio.read_trials(path)

    def test_channel_name_not_utf8(self, tmp_path, rng):
        path = tmp_path / "x.eegt"
        dataio.write_trials(small_set(rng), path)
        path.write_bytes(path.read_bytes()[:-1] + b"\xff")  # "ch2" -> b"ch\xff"
        with pytest.raises(FormatError, match="channel name 2 is not UTF-8"):
            dataio.read_trials(path)

    def test_truncated_stream(self, tmp_path, rng):
        # a pipe has no size to check up front: the short read of the data
        # tensor itself is what raises
        dataio.write_trials(small_set(rng), tmp_path / "x.eegt")
        blob = (tmp_path / "x.eegt").read_bytes()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(blob[:100])

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(FormatError, match="truncated file: data tensor needs"):
                dataio.read_trials(fifo)
        finally:
            writer.join()

    def test_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "x.eegt"
        dataio.write_trials(small_set(rng), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            dataio.read_trials(path)

    def test_header_sizes_beyond_the_file(self, tmp_path, rng):
        # a corrupt header's sizes raise FormatError before they allocate
        path = tmp_path / "x.eegt"
        dataio.write_trials(small_set(rng), path)
        blob = bytearray(path.read_bytes())
        blob[8:20] = struct.pack("<III", 2**31, 2**31, 2**31)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="data tensor"):
            dataio.read_trials(path)

    def test_write_holds_no_copy_of_the_tensor(self, tmp_path, rng):
        ts = small_set(rng, c=16, n=256, t=128)  # a 4 MiB tensor
        path = tmp_path / "x.eegt"
        tracemalloc.start()
        try:
            dataio.write_trials(ts, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * ts.data.nbytes
        expected = b"".join(
            [
                b"EEGT",
                struct.pack("<IIII", 1, 16, 256, 128),
                ts.data.astype("<f8").tobytes(order="C"),
                ts.labels.astype("<i1").tobytes(),
                ts.session_ids.astype("<u4").tobytes(),
            ]
            + [struct.pack("<I", len(name)) + name.encode() for name in ts.channel_names]
        )
        assert path.read_bytes() == expected

    def test_read_holds_the_file_once(self, tmp_path, rng):
        ts = small_set(rng, c=16, n=256, t=128)  # a 4 MiB tensor
        path = tmp_path / "x.eegt"
        dataio.write_trials(ts, path)
        tracemalloc.start()
        try:
            back = dataio.read_trials(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * ts.data.nbytes
        np.testing.assert_array_equal(back.data, ts.data)


class TestManifest:
    def test_load_merges_sessions(self, tmp_path, rng):
        a, b = small_set(rng, t=4), small_set(rng, t=6)
        dataio.write_trials(a, tmp_path / "a.eegt")
        dataio.write_trials(b, tmp_path / "b.eegt")
        manifest = tmp_path / "files.txt"
        manifest.write_text("# one file per session\n3 a.eegt\n7 b.eegt\n")
        merged = dataio.load_manifest(manifest)
        assert merged.n_trials == 10
        np.testing.assert_array_equal(np.unique(merged.session_ids), [3, 7])
        np.testing.assert_array_equal(merged.data[:, :, :4], a.data)

    @pytest.mark.parametrize("c, n, prefix", [(4, 40, "x"), (3, 40, "ch"), (4, 50, "ch")])
    def test_files_that_disagree_rejected(self, tmp_path, rng, c, n, prefix):
        # the third file differs from the first in channel names, count or samples
        a, b = small_set(rng, c=4, n=40), small_set(rng, c=c, n=n)
        b.channel_names = [f"{prefix}{i}" for i in range(c)]
        for name, ts in (("a.eegt", a), ("b.eegt", a), ("c.eegt", b), ("d.eegt", b)):
            dataio.write_trials(ts, tmp_path / name)
        manifest = tmp_path / "files.txt"
        manifest.write_text("0 a.eegt\n1 b.eegt\n2 c.eegt\n3 d.eegt\n")
        with pytest.raises(InvalidInput, match=r"manifest file \S*c\.eegt disagrees"):
            dataio.load_manifest(manifest)

    def test_file_listed_twice_rejected(self, tmp_path, rng):
        # one file's trials loaded twice would put copies of held-out trials
        # in their own training split; the line of the repeat is named
        dataio.write_trials(small_set(rng), tmp_path / "b.eegt")
        manifest = tmp_path / "m.txt"
        for text in ("0 b.eegt\n0 ./b.eegt\n", f"0 b.eegt\n# again\n1 {tmp_path / 'b.eegt'}\n"):
            manifest.write_text(text)
            line = text.count("\n")
            with pytest.raises(FormatError, match=f"^manifest line {line}: repeats the file of line 1$"):
                dataio.load_manifest(manifest)

    def test_bad_lines(self, tmp_path):
        manifest = tmp_path / "m.txt"
        manifest.write_text("notanint file.eegt\n")
        with pytest.raises(FormatError):
            dataio.read_manifest(manifest)
        manifest.write_text("\n")
        with pytest.raises(FormatError):
            dataio.read_manifest(manifest)
        manifest.write_text("0\n")
        with pytest.raises(FormatError, match="line 1: expected '<session> <path>'"):
            dataio.read_manifest(manifest)
        manifest.write_text("# sessions\n-1 a.eegt\n")
        with pytest.raises(FormatError, match="line 2: session id must be >= 0"):
            dataio.read_manifest(manifest)
        # the largest u32 is a session id; one more does not fit an EEGT file
        manifest.write_text("4294967295 a.eegt\n4294967296 b.eegt\n")
        with pytest.raises(FormatError, match=r"line 2: session id must be >= 0 and < 2\*\*32$"):
            dataio.read_manifest(manifest)


class TestEmpiricalCovariance:
    def test_constant_row_rejected(self, rng):
        trial = rng.standard_normal((3, 50))
        trial[1] = 2.5
        with pytest.raises(NotPositiveDefinite):
            dataio.empirical_covariance(trial)

    def test_direct_sum_oracle(self, rng):
        trial = rng.standard_normal((4, 60))
        cov = dataio.empirical_covariance(trial)
        centered = trial - trial.mean(axis=1, keepdims=True)
        oracle = np.zeros((4, 4))
        for n in range(60):
            oracle += np.outer(centered[:, n], centered[:, n])
        oracle /= 60
        np.testing.assert_allclose(cov, oracle, atol=1e-12)

    def test_stack_matches_per_trial_loop(self, rng):
        ts = small_set(rng, c=4, n=60, t=7)
        covs = dataio.covariances(ts)
        for t in range(ts.n_trials):
            centered = ts.trial(t) - ts.trial(t).mean(axis=1, keepdims=True)
            np.testing.assert_allclose(covs[t], centered @ centered.T / 60, rtol=1e-14)

    def test_blocks_equal_one_stack(self, rng, monkeypatch):
        data = rng.standard_normal((3, 20, 10))
        one = dataio._covariance_stack(data)
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 3 * 8 * 3 * 20)  # blocks of 3, 3, 3, 1
        np.testing.assert_array_equal(dataio._spd_covariances(data), one)

    def test_a_view_route_takes_a_contiguous_tensor_whole_while_its_rows_fit(self, monkeypatch):
        # blocks of 15 trials of 4 x 5; an fn that filters a view of a
        # C-contiguous tensor onto 2 rows allocates 2 x 5 x 30 floats whole
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 8 * 2 * 5 * 30)
        seen = []

        def fn(block):
            seen.append(block.shape[2])
            return np.zeros(block.shape[2])

        contiguous = np.zeros((4, 5, 30))
        strided = np.zeros((4, 5, 60))[:, :, :30]
        for data, rows, blocks in [
            (contiguous, 2, [30]),
            (contiguous, 3, [15, 15]),
            (contiguous, None, [15, 15]),
            (strided, 2, [15, 15]),
        ]:
            seen.clear()
            assert dataio._blockwise(fn, data, rows).shape == (30,)
            assert seen == blocks, (data.flags.c_contiguous, rows)

    def test_a_failing_block_is_rescored_through_its_end_only(self, monkeypatch):
        # blocks of 3 trials of 2 x 4; trial 7, in the third block, fails:
        # the rescore that names it by its index in the tensor takes trials
        # 0-8, not all 20, and a failure in the first block is not rescored.
        # An fn that filters a view takes all 20, which it does not copy
        monkeypatch.setattr(dataio, "_BLOCK_BYTES", 3 * 8 * 2 * 4)
        seen = []

        def fn(block):
            seen.append(block.shape[2])
            bad = np.flatnonzero(block[0, 0] < 0)
            if bad.size:
                raise NotPositiveDefinite(f"covariance {bad[0]} is not positive definite")
            return np.zeros(block.shape[2])

        for bad, rows, calls in [(7, None, [3, 3, 3, 9]), (1, None, [3]), (7, 2, [3, 3, 3, 20])]:
            data = np.ones((2, 4, 20))
            data[:, :, bad] = -1.0
            seen.clear()
            with pytest.raises(NotPositiveDefinite, match=f"^covariance {bad} "):
                dataio._blockwise(fn, data, rows)
            assert seen == calls

    def test_rank_deficient_trial_named(self, rng):
        ts = small_set(rng, c=3, n=50, t=5)
        ts.data[1, :, 3] = 2.5
        with pytest.raises(NotPositiveDefinite, match="covariance 3 "):
            dataio.covariances(ts)

    @pytest.mark.parametrize("c, n", [(2, 2), (4, 3), (8, 8), (8, 1)])
    def test_too_few_samples_raise_without_warning(self, rng, c, n):
        # N <= C samples give a covariance of rank < C: the SPD check names
        # the fix, and nothing warns first
        ts = small_set(rng, c=c, n=n, t=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite, match="use more samples per trial"):
                dataio.covariances(ts)

    @pytest.mark.parametrize("shape", [(0, 5), (3, 0)])
    def test_no_channels_or_no_samples_rejected(self, shape):
        with pytest.raises(InvalidInput, match="no channels or no samples"):
            dataio.empirical_covariance(np.ones(shape))

    def test_trial_must_be_a_matrix(self, rng):
        with pytest.raises(InvalidInput, match="C x N matrix"):
            dataio.empirical_covariance(rng.standard_normal((3, 40, 1)))

    def test_scaling_leaves_filter_directions(self, rng):
        # scaling every covariance moves the Frechet mean by the same
        # scalar and leaves generalized eigenvector directions untouched
        ts = small_set(rng, c=3, n=100, t=8)
        covs = dataio.covariances(ts)
        covs_raw = 100 * dataio.covariances(ts)
        mean = manifold.frechet_mean(covs)
        mean_raw = manifold.frechet_mean(covs_raw)
        np.testing.assert_allclose(mean_raw, 100 * mean, rtol=1e-8)
        g1 = manifold.ged(covs[0], mean)
        g2 = manifold.ged(covs_raw[0], mean_raw)
        angle = manifold.subspace_angle_by_cluster(
            g1.eigenvectors, g2.eigenvectors, g1.eigenvalues
        )
        assert angle < 1e-8


class TestFirBandpass:
    @staticmethod
    def tone(freq, fs=250.0, n=1000):
        t = np.arange(n) / fs
        return np.sin(2 * np.pi * freq * t)

    def make_set(self, signal):
        data = np.tile(signal, (2, 1))[:, :, None]
        return dataio.TrialSet(
            data=data, labels=[1], session_ids=[0], channel_names=["a", "b"]
        )

    def test_passband_tone_retained(self):
        ts = self.make_set(self.tone(10.0))
        out = dataio.fir_bandpass(ts, 8.0, 32.0, 250.0)
        rms_in = np.sqrt(np.mean(ts.data**2))
        rms_out = np.sqrt(np.mean(out.data**2))
        assert rms_out >= 0.9 * rms_in

    def test_stopband_tone_suppressed(self):
        ts = self.make_set(self.tone(2.0))
        out = dataio.fir_bandpass(ts, 8.0, 32.0, 250.0)
        rms_in = np.sqrt(np.mean(ts.data**2))
        rms_out = np.sqrt(np.mean(out.data**2))
        assert rms_out <= 0.1 * rms_in

    def test_zero_signal(self):
        ts = self.make_set(np.zeros(1000))
        out = dataio.fir_bandpass(ts, 8.0, 32.0, 250.0)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_invalid_band(self, rng):
        ts = small_set(rng, n=600)
        with pytest.raises(InvalidInput):
            dataio.fir_bandpass(ts, 32.0, 8.0, 250.0)
        with pytest.raises(InvalidInput):
            dataio.fir_bandpass(ts, 8.0, 200.0, 250.0)


class TestSynth:
    def test_identity_mixing_class_variances(self):
        cfg = dataio.SynthConfig(
            channels=2,
            samples=4000,
            trials_per_class=20,
            seed=5,
            n_discriminative=2,
            var_pos=(4.0, 1.0),
            var_neg=(1.0, 4.0),
            noise_sigma=0.0,
            mixing="identity",
        )
        ts = dataio.synth_generate(cfg)
        covs = dataio.covariances(ts)
        pos = covs[ts.labels == 1].mean(axis=0)
        neg = covs[ts.labels == -1].mean(axis=0)
        np.testing.assert_allclose(np.diag(pos), [4.0, 1.0], rtol=0.1)
        np.testing.assert_allclose(np.diag(neg), [1.0, 4.0], rtol=0.1)

    def test_seed_reproducibility(self):
        cfg = dataio.SynthConfig(channels=3, samples=50, trials_per_class=4, seed=9)
        a = dataio.synth_generate(cfg)
        b = dataio.synth_generate(cfg)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_mixing_closed_form(self):
        cfg = dataio.SynthConfig(
            channels=3,
            samples=5000,
            trials_per_class=20,
            seed=2,
            n_discriminative=1,
            var_pos=(6.0,),
            var_neg=(0.5,),
            noise_sigma=0.0,
            mixing="random",
        )
        ts = dataio.synth_generate(cfg)
        # recover the mixing matrix the generator drew
        rng = np.random.default_rng(cfg.seed)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mix = (u * rng.uniform(0.5, 1.5, size=3)) @ v.T
        covs = dataio.covariances(ts)
        pos = covs[ts.labels == 1].mean(axis=0)
        expected = mix @ np.diag([6.0, 1.0, 1.0]) @ mix.T
        np.testing.assert_allclose(pos, expected, rtol=0.1, atol=0.05)

    def test_sessions_balanced(self):
        cfg = dataio.SynthConfig(channels=2, samples=30, trials_per_class=8, sessions=2)
        ts = dataio.synth_generate(cfg)
        for s in (0, 1):
            labels = ts.labels[ts.session_ids == s]
            assert (labels == 1).sum() == (labels == -1).sum() == 4

    def test_invalid_config(self):
        with pytest.raises(InvalidInput):
            dataio.SynthConfig(noise_sigma=-1.0).validate()
        with pytest.raises(InvalidInput):
            dataio.SynthConfig(n_discriminative=9, channels=8).validate()
        with pytest.raises(InvalidInput):
            dataio.SynthConfig(var_pos=(1.0,)).validate()
        for bad, match in [
            (dict(channels=0), "must be >= 1"),
            (dict(background_variance=0.0), "^background_variance must be positive and finite$"),
            (dict(var_neg=(1.0, -4.0)), "^var_neg must be positive and finite$"),
            (dict(nonstationarity=-0.1), "nonstationarity must be >= 0"),
            (dict(mixing="orthogonal"), "mixing must be"),
            (dict(sessions=0), "sessions must be >= 1"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
        ]:
            with pytest.raises(InvalidInput, match=match):
                dataio.SynthConfig(**bad).validate()

    def test_config_from_text(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "# demo config\n"
            "channels: 4\n"
            "samples: 64\n"
            "trials_per_class: 10\n"
            "seed: 3\n"
            "var_pos: 4, 1\n"
            "var_neg: 1, 4\n"
            "noise_sigma: 0.25\n"
            "mixing: identity\n"
        )
        cfg = dataio.SynthConfig.from_text(path)
        assert cfg.channels == 4 and cfg.noise_sigma == 0.25 and cfg.mixing == "identity"

    def test_config_bad_key(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("channel_count: 4\n")
        with pytest.raises(InvalidInput):
            dataio.SynthConfig.from_text(path)
        path.write_text("# no colon below\nchannels 4\n")
        with pytest.raises(InvalidInput, match="config line 2: expected 'key: value'"):
            dataio.SynthConfig.from_text(path)

    def test_config_key_given_twice_rejected(self, tmp_path):
        # the second value used to win without a word
        path = tmp_path / "synth.cfg"
        path.write_text("seed: 1\nchannels: 4\nseed: 2\n")
        with pytest.raises(InvalidInput, match="^config line 3: key 'seed' given more than once$"):
            dataio.SynthConfig.from_text(path)

    def test_config_values_read_by_field_type(self, tmp_path):
        # an int field rejects "8.0"; a float field reads "1" as 1.0
        path = tmp_path / "synth.cfg"
        path.write_text("noise_sigma: 1\nvar_pos: 2 1\n")
        cfg = dataio.SynthConfig.from_text(path)
        assert type(cfg.noise_sigma) is float and cfg.noise_sigma == 1.0
        assert cfg.var_pos == (2.0, 1.0)
        for bad in ("channels: 8.0", "seed: x", "noise_sigma: x", "var_pos: 4, x"):
            path.write_text(bad + "\n")
            with pytest.raises(InvalidInput, match="has a bad value"):
                dataio.SynthConfig.from_text(path)

