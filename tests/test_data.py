import numpy as np
import pytest

from advmt.data import (
    CorpusConfig,
    downsample,
    generate_corpus,
    generate_gait,
    load_corpus,
    load_csv,
    save_csv,
    window,
    write_corpus,
)
from advmt.errors import (
    ConfigurationError,
    CsvParseError,
    InsufficientFramesError,
    RateError,
)
from advmt.skeleton import MotionSequence, bone_lengths


class TestGenerateGait:
    def test_deterministic(self, topo17):
        a = generate_gait(7, topo17, n_frames=30, style="walk")
        b = generate_gait(7, topo17, n_frames=30, style="walk")
        assert np.array_equal(a.frames, b.frames)

    def test_different_seeds_differ(self, topo17):
        a = generate_gait(1, topo17, n_frames=30, style="walk")
        b = generate_gait(2, topo17, n_frames=30, style="walk")
        assert not np.array_equal(a.frames, b.frames)

    def test_zero_amplitude_idle_is_constant(self, topo17):
        seq = generate_gait(3, topo17, n_frames=20, style="idle_sway", amplitude_scale=0.0)
        assert np.array_equal(seq.frames, np.broadcast_to(seq.frames[0], seq.frames.shape))

    @pytest.mark.parametrize("style", ["walk", "wave_arms", "idle_sway"])
    def test_bone_lengths_constant(self, topo17, style):
        seq = generate_gait(11, topo17, n_frames=40, style=style)
        ref = bone_lengths(seq.frames[0], topo17)
        for f in range(seq.n_frames):
            assert np.abs(bone_lengths(seq.frames[f], topo17) - ref).max() < 1e-9

    def test_walk_root_translates(self, topo17):
        seq = generate_gait(5, topo17, n_frames=50, style="walk")
        assert seq.frames[-1, 0, 1] > seq.frames[0, 0, 1]

    def test_idle_root_stays(self, topo17):
        seq = generate_gait(5, topo17, n_frames=50, style="idle_sway")
        assert np.array_equal(seq.frames[0, 0], seq.frames[-1, 0])

    def test_unknown_style(self, topo17):
        with pytest.raises(ConfigurationError):
            generate_gait(0, topo17, n_frames=10, style="moonwalk")

    def test_action_label_set(self, topo17):
        assert generate_gait(0, topo17, n_frames=5, style="wave_arms").action_label == "wave_arms"


class TestDownsample:
    def test_fifty_to_twentyfive(self, rng):
        seq = MotionSequence(frames=rng.standard_normal((100, 2, 3)), fps=50)
        out = downsample(seq, 25)
        assert out.fps == 25
        assert out.n_frames == 50
        assert np.array_equal(out.frames, seq.frames[::2])

    def test_identity(self, rng):
        seq = MotionSequence(frames=rng.standard_normal((10, 2, 3)), fps=25)
        out = downsample(seq, 25)
        assert np.array_equal(out.frames, seq.frames)

    def test_three_to_one_indexing(self, rng):
        seq = MotionSequence(frames=rng.standard_normal((75, 2, 3)), fps=75)
        out = downsample(seq, 25)
        for i in range(out.n_frames):
            assert np.array_equal(out.frames[i], seq.frames[3 * i])

    def test_non_divisible_rejected(self, rng):
        seq = MotionSequence(frames=rng.standard_normal((10, 2, 3)), fps=50)
        with pytest.raises(RateError):
            downsample(seq, 30)


class TestWindow:
    def _seq(self, n, rng):
        return MotionSequence(frames=rng.standard_normal((n, 2, 3)), fps=25)

    def test_exact_fit_one_window(self, rng):
        assert len(window(self._seq(75, rng), 50, 25, stride=1)) == 1

    def test_count_formula(self, rng):
        assert len(window(self._seq(77, rng), 50, 25, stride=1)) == 3

    @pytest.mark.parametrize("f,stride", [(80, 5), (90, 3), (100, 7)])
    def test_count_formula_general(self, rng, f, stride):
        got = len(window(self._seq(f, rng), 50, 25, stride=stride))
        assert got == (f - 75) // stride + 1

    def test_target_follows_input(self, rng):
        seq = self._seq(90, rng)
        for s in window(seq, 50, 25, stride=5):
            joined = np.concatenate([s.input, s.target])
            start = None
            for k in range(seq.n_frames - 74):
                if np.array_equal(seq.frames[k : k + 75], joined):
                    start = k
                    break
            assert start is not None

    def test_too_short(self, rng):
        with pytest.raises(InsufficientFramesError):
            window(self._seq(74, rng), 50, 25, stride=1)


class TestCsv:
    def test_roundtrip_exact(self, topo17, tmp_path, rng):
        seq = MotionSequence(frames=rng.standard_normal((7, 17, 3)) * 1000, fps=25)
        path = tmp_path / "seq.csv"
        save_csv(seq, path, topo17.joint_names)
        loaded = load_csv(path, topo17)
        assert np.array_equal(loaded.frames, seq.frames)
        assert loaded.fps == 25

    def test_hand_written_fixture(self, tmp_path):
        from advmt.skeleton import SkeletonTopology

        topo = SkeletonTopology(joint_names=("a", "b"), parent=(None, 0))
        path = tmp_path / "tiny.csv"
        path.write_text(
            "# fps=25 joints=a,b\n"
            "0,1,2,3,4,5\n"
            "6,7,8,9,10,11\n"
        )
        seq = load_csv(path, topo)
        assert seq.frames.shape == (2, 2, 3)
        assert np.array_equal(seq.frames.reshape(2, 6), [[0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]])

    def test_leading_frame_index_accepted(self, tmp_path):
        from advmt.skeleton import SkeletonTopology

        topo = SkeletonTopology(joint_names=("a",), parent=(None,))
        path = tmp_path / "idx.csv"
        path.write_text("# fps=25 joints=a\n0,1,2,3\n1,4,5,6\n")
        seq = load_csv(path, topo)
        assert np.array_equal(seq.frames.reshape(2, 3), [[1, 2, 3], [4, 5, 6]])

    def test_nan_names_row_and_column(self, tmp_path):
        from advmt.skeleton import SkeletonTopology

        topo = SkeletonTopology(
            joint_names=("a", "b", "c"), parent=(None, 0, 1)
        )
        rows = ["1,2,3,4,5,6,7,8,9"] * 2 + ["1,2,3,4,5,6,nan,8,9"]
        path = tmp_path / "bad.csv"
        path.write_text("# fps=25 joints=a,b,c\n" + "\n".join(rows) + "\n")
        with pytest.raises(CsvParseError, match=r"row 3, column 7"):
            load_csv(path, topo)

    @pytest.mark.parametrize("rows,message", [
        (["1,2,3", "1,inf,3", "1,x,3"], r"row 2, column 2: non-finite value inf$"),
        (["1,2,3", "1,inf,3", "1,2"], r"row 2, column 2: non-finite value inf$"),
        (["0,1,2,3", "", "1,1,2,1e999", "2,1,nan,3"], r"row 3, column 4: non-finite value 1e999$"),
        (["1,2,3", "1,x,inf"], r"row 2, column 2: 'x' is not a number$"),
        (["1,nan,x"], r"row 1, column 2: non-finite value nan$"),
    ])
    def test_first_bad_cell_in_file_order(self, tmp_path, rows, message):
        """Finiteness is checked over the parsed array, after the parse; the
        error still names the first bad cell of the file."""
        from advmt.skeleton import SkeletonTopology

        topo = SkeletonTopology(joint_names=("a",), parent=(None,))
        path = tmp_path / "bad.csv"
        path.write_text("# fps=25 joints=a\n" + "\n".join(rows) + "\n")
        with pytest.raises(CsvParseError, match=message):
            load_csv(path, topo)

    def test_saved_cells_are_17_digit_g_format(self, tmp_path):
        from advmt.skeleton import SkeletonTopology

        topo = SkeletonTopology(joint_names=("a",), parent=(None,))
        values = [[0.1, -0.0, 1 / 3], [5e-324, 1e22, -2.5e-10]]
        path = tmp_path / "fmt.csv"
        save_csv(MotionSequence(frames=np.array(values).reshape(2, 1, 3), fps=25), path, ("a",))
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values)
        assert path.read_text() == "# fps=25 joints=a\n" + expected
        assert np.array_equal(load_csv(path, topo).frames.reshape(2, 3), values)

    def test_missing_fps_header(self, tmp_path, topo17):
        path = tmp_path / "nofps.csv"
        path.write_text("# joints=a\n1,2,3\n")
        with pytest.raises(CsvParseError, match="fps"):
            load_csv(path, topo17)

    @pytest.mark.parametrize("fps", ["0", "-25"])
    def test_non_positive_fps_names_the_file(self, tmp_path, topo17, fps):
        path = tmp_path / "zero_fps.csv"
        path.write_text(f"# fps={fps} joints={','.join(topo17.joint_names)}\n" + "0," * 50 + "0\n")
        with pytest.raises(CsvParseError, match=rf"zero_fps\.csv: fps must be positive, got {fps}$"):
            load_csv(path, topo17)

    def test_column_mismatch(self, tmp_path):
        from advmt.skeleton import SkeletonTopology

        topo = SkeletonTopology(joint_names=("a",), parent=(None,))
        path = tmp_path / "short.csv"
        path.write_text("# fps=25 joints=a\n1,2\n")
        with pytest.raises(CsvParseError, match="row 1"):
            load_csv(path, topo)

    def test_joint_order_validated(self, tmp_path):
        from advmt.skeleton import SkeletonTopology

        topo = SkeletonTopology(joint_names=("a", "b"), parent=(None, 0))
        path = tmp_path / "wrong.csv"
        path.write_text("# fps=25 joints=b,a\n1,2,3,4,5,6\n")
        with pytest.raises(CsvParseError, match="joint order"):
            load_csv(path, topo)


class TestCorpus:
    def test_seed_ranges_disjoint(self):
        with pytest.raises(ConfigurationError):
            CorpusConfig(n_train=101)

    def test_generate_corpus_layout(self, topo17):
        cfg = CorpusConfig(n_train=3, n_test=2, n_frames=10)
        cs = generate_corpus(cfg, topo17)
        assert len(cs.train.sequences) == 3
        assert len(cs.test.sequences) == 2
        assert cs.train.split == "train"
        assert cs.train.action_counts() == {"walk": 3}

    def test_style_cycling(self, topo17):
        cfg = CorpusConfig(n_train=4, n_test=0, n_frames=5, styles=("walk", "idle_sway"))
        cs = generate_corpus(cfg, topo17)
        labels = [s.action_label for s in cs.train.sequences]
        assert labels == ["walk", "idle_sway", "walk", "idle_sway"]

    def test_write_load_roundtrip(self, topo17, tmp_path):
        cfg = CorpusConfig(n_train=2, n_test=1, n_frames=8)
        cs = generate_corpus(cfg, topo17)
        manifest = write_corpus(cs, tmp_path / "corpus")
        loaded = load_corpus(manifest)
        assert loaded.topology == topo17
        assert len(loaded.train.sequences) == 2
        assert len(loaded.test.sequences) == 1
        for a, b in zip(cs.train.sequences, loaded.train.sequences):
            assert np.array_equal(a.frames, b.frames)
            assert a.action_label == b.action_label

    def test_mixed_frame_rates_rejected(self, topo17, tmp_path):
        cs = generate_corpus(CorpusConfig(n_train=2, n_test=1, n_frames=8), topo17)
        second = cs.train.sequences[1]
        cs.train.sequences[1] = MotionSequence(frames=second.frames, fps=50,
                                               action_label=second.action_label)
        manifest = write_corpus(cs, tmp_path / "corpus")
        with pytest.raises(ConfigurationError, match=r"walk_0001\.csv is at 50 fps.* 25 fps"):
            load_corpus(manifest)

    def test_corpus_determinism_bytes(self, topo17, tmp_path):
        cfg = CorpusConfig(n_train=2, n_test=1, n_frames=8)
        p1 = tmp_path / "one"
        p2 = tmp_path / "two"
        write_corpus(generate_corpus(cfg, topo17), p1)
        write_corpus(generate_corpus(cfg, topo17), p2)
        for rel in ("manifest.json", "skeleton.json", "train/walk_0000.csv", "test/walk_0000.csv"):
            assert (p1 / rel).read_bytes() == (p2 / rel).read_bytes()
