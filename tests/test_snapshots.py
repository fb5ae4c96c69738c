"""Binary snapshot format: layout, roundtrip, corruption detection."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from voigt2d import (
    GridSpec,
    Snapshot,
    SnapshotError,
    inverse_transform,
    l2_norm,
    make_random_sobolev,
    read_snapshot,
    snapshot_of,
    write_snapshot,
)
from voigt2d.cli import _sha256, cmd_diagnose

HEADER = struct.Struct("<4sIIdd")


def sample_snapshot(m=32, seed=3):
    g = GridSpec(m)
    f = make_random_sobolev(g, sigma=2.5, seed=seed, band=g.dealias_cutoff)
    return snapshot_of(f, time=0.75, alpha=1e-3)


def whole_file_bytes(snap):
    """The file's bytes from the header and one transposed copy of all the
    values, the layout's definition."""
    m = snap.values.shape[0]
    header = HEADER.pack(b"VFLD", 1, m, snap.time, snap.alpha)
    return header + np.ascontiguousarray(snap.values.T, dtype="<f8").tobytes()


class TestRoundtrip:
    def test_bit_identical(self, tmp_path):
        snap = sample_snapshot()
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), snap)
        back = read_snapshot(str(p))
        assert back.time == snap.time
        assert back.alpha == snap.alpha
        assert np.array_equal(back.values, snap.values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        snap = sample_snapshot()
        a, b = tmp_path / "a.vfld", tmp_path / "b.vfld"
        write_snapshot(str(a), snap)
        write_snapshot(str(b), snap)
        assert a.read_bytes() == b.read_bytes()

    def test_field_reconstruction(self, tmp_path):
        g = GridSpec(32)
        f = make_random_sobolev(g, sigma=2.5, seed=4, band=10)
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), snapshot_of(f, 0.0, 0.0))
        back = read_snapshot(str(p)).field()
        assert l2_norm(back - f) <= 1e-13 * l2_norm(f)

    def test_values_read_only(self, tmp_path):
        snap = sample_snapshot()
        with pytest.raises(ValueError):
            snap.values[0, 0] = 1.0
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), snap)
        with pytest.raises(ValueError):
            read_snapshot(str(p)).values[0, 0] = 1.0


    def test_read_copies_the_values_once(self, tmp_path):
        # the file's bytes and one array of values, not a second copy
        import tracemalloc

        m = 128
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), sample_snapshot(m))
        tracemalloc.start()
        try:
            snap = read_snapshot(str(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not snap.values.flags.writeable
        assert peak < 2.5 * 8 * m * m


class TestLayout:
    def test_header_fields(self, tmp_path):
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), sample_snapshot(m=32))
        blob = p.read_bytes()
        magic, version, m, time, alpha = HEADER.unpack(blob[: HEADER.size])
        assert magic == b"VFLD"
        assert version == 1
        assert m == 32
        assert time == 0.75
        assert alpha == 1e-3
        assert len(blob) == HEADER.size + 32 * 32 * 8

    def test_payload_is_x_fastest(self, tmp_path):
        # an x1-only profile must produce rows of identical doubles:
        # consecutive payload values scan x1 at fixed x2
        g = GridSpec(16)
        x1, _ = g.meshgrid()
        from voigt2d import forward_transform

        f = forward_transform(np.cos(x1), g)
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), snapshot_of(f, 0.0, 0.0))
        payload = np.frombuffer(p.read_bytes()[HEADER.size :], dtype="<f8")
        rows = payload.reshape(16, 16)  # each row: x2 fixed, x1 varies
        expected = np.cos(g.nodes())
        assert np.allclose(rows, expected[None, :], atol=1e-14)

    def test_anisotropic_field_survives(self, tmp_path):
        g = GridSpec(16)
        x1, x2 = g.meshgrid()
        from voigt2d import forward_transform

        f = forward_transform(np.cos(x1) + 2.0 * np.sin(2.0 * x2), g)
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), snapshot_of(f, 0.0, 0.0))
        back = read_snapshot(str(p))
        assert np.max(np.abs(back.values - inverse_transform(f))) == 0.0


class TestBlockedEncoding:
    # 32 rows a block: M = 80 ends in a partial block, M = 16 is one block
    @pytest.mark.parametrize("m", [16, 64, 80])
    def test_file_is_the_whole_payload(self, tmp_path, m):
        snap = sample_snapshot(m)
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), snap)
        assert p.read_bytes() == whole_file_bytes(snap)
        back = tmp_path / "back.vfld"
        write_snapshot(str(back), read_snapshot(str(p)))
        assert back.read_bytes() == whole_file_bytes(snap)

    @pytest.mark.parametrize("m", [16, 64, 80])
    def test_hash_is_the_hash_of_the_file(self, tmp_path, m):
        snap = sample_snapshot(m)
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), snap)
        want = hashlib.sha256(p.read_bytes()).hexdigest()
        assert _sha256(snap) == want
        assert _sha256(read_snapshot(str(p))) == want

    def test_printed_hash_is_of_the_whole_payload(self, tmp_path, capsys):
        snap = sample_snapshot(80)
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), snap)
        assert cmd_diagnose(str(p), (), ()) == 0
        want = hashlib.sha256(whole_file_bytes(snap)).hexdigest()
        assert f"# snapshot sha256 {want}" in capsys.readouterr().out.splitlines()

    def test_warm_hash_copies_no_payload(self, tmp_path):
        # a snapshot read back stores the transpose of the file's layout,
        # so one copy of the payload would be all of values.nbytes
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), sample_snapshot(512))
        snap = read_snapshot(str(p))
        _sha256(snap)
        tracemalloc.start()
        try:
            _sha256(snap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * snap.values.nbytes, peak


class TestCorruption:
    def write_sample(self, tmp_path):
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), sample_snapshot(m=16))
        return p

    def test_bad_magic(self, tmp_path):
        p = self.write_sample(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[:4] = b"JUNK"
        p.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="magic"):
            read_snapshot(str(p))

    def test_unknown_version(self, tmp_path):
        p = self.write_sample(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        p.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(str(p))

    def test_truncated_payload(self, tmp_path):
        p = self.write_sample(tmp_path)
        blob = p.read_bytes()
        p.write_bytes(blob[:-8])
        with pytest.raises(SnapshotError, match="truncated|length|bytes"):
            read_snapshot(str(p))

    def test_truncated_header(self, tmp_path):
        p = self.write_sample(tmp_path)
        p.write_bytes(p.read_bytes()[:10])
        with pytest.raises(SnapshotError):
            read_snapshot(str(p))

    def test_trailing_junk(self, tmp_path):
        p = self.write_sample(tmp_path)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(SnapshotError):
            read_snapshot(str(p))

    def test_bad_grid_size(self, tmp_path):
        p = self.write_sample(tmp_path)
        blob = bytearray(p.read_bytes())
        blob[8:12] = struct.pack("<I", 15)
        p.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="grid"):
            read_snapshot(str(p))

    @pytest.mark.parametrize("time, alpha", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1e-3)])
    def test_non_finite_header_rejected(self, tmp_path, time, alpha):
        p = tmp_path / "state.vfld"
        values = sample_snapshot(m=16).values
        write_snapshot(str(p), Snapshot(time=time, alpha=alpha, values=values))
        with pytest.raises(SnapshotError, match="non-finite header in .*state.vfld"):
            read_snapshot(str(p))

    @pytest.mark.parametrize("named", ["zero-mean", "finite"])
    def test_bad_values_name_the_file(self, tmp_path, named):
        g = GridSpec(32)
        x1, _ = g.meshgrid()
        values = np.cos(x1)
        if named == "zero-mean":
            values += 0.5
        else:
            values[3, 5] = np.nan
        p = tmp_path / "state.vfld"
        write_snapshot(str(p), Snapshot(time=0.0, alpha=0.0, values=values))
        with pytest.raises(SnapshotError, match=f"state.vfld.*{named}"):
            cmd_diagnose(str(p), (), ())

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(str(tmp_path / "absent.vfld"))


class TestSnapshotType:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Snapshot(time=0.0, alpha=0.0, values=np.zeros((8, 4)))

    def test_grid_property(self):
        snap = sample_snapshot(m=32)
        assert snap.grid.size == 32
