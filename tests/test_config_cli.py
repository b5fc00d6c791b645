"""Config parsing, CSV round-trips, CLI verbs and exit codes."""

import contextlib
import functools
import io
import math
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import slungsim
from slungsim import cli
from slungsim.cli import (EXIT_ABORT, EXIT_CONFIG, EXIT_INTERRUPT, EXIT_IO,
                          EXIT_OK, TRACE_COLUMNS, TraceError, main,
                          read_sweep, read_trace, run_sweep, write_sweep,
                          write_trace)
from slungsim.config import (DEFAULT_SWEEP_MASSES, KEYS, ConfigError,
                             SweepSpec, build_sim_config, build_sweep_spec,
                             load_config, parse_kv_file)
from slungsim.dynamics import VehicleParams, cable_offset
from slungsim.simloop import (CONTROLLERS, LOG_WIDTH, MAX_MPC_HORIZON,
                              MAX_SUBSTEPS, SimConfig, SimLog, run)
from slungsim.controllers import PdGains, SmcController, SmcGains


class TestKvParsing:
    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("# header\n\ncontroller = MPC  # inline\n m_L=0.3 \n")
        assert parse_kv_file(str(p)) == {"controller": "MPC", "m_L": "0.3"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_kv_file(str(tmp_path / "nope.cfg"))

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("controller MPC\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_kv_file(str(p))

    def test_later_line_wins(self, tmp_path):
        p = tmp_path / "a.cfg"
        p.write_text("m_L = 0.1\nm_L = 0.2\n")
        assert parse_kv_file(str(p)) == {"m_L": "0.2"}


class TestSimConfigBuild:
    def test_minimal_fills_defaults(self):
        cfg = build_sim_config({"controller": "MPC", "m_L": "0.3"})
        assert cfg.controller == "MPC"
        assert cfg.m_L == 0.3
        assert cfg.params.m_q == 1.0
        assert cfg.params.U1_max == 14.72
        assert cfg.duration == 75.0
        assert cfg.mpc_horizon == 25

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="controler"):
            build_sim_config({"controler": "PD"})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="vehicle.mass"):
            build_sim_config({"vehicle.mass": "2.0"})

    def test_overweight_load_rejected(self):
        with pytest.raises(ConfigError):
            build_sim_config({"m_L": "0.7"})

    def test_vehicle_override(self):
        cfg = build_sim_config({"vehicle.U1_max": "12.0"})
        assert cfg.params.U1_max == 12.0

    def test_gain_overrides(self):
        cfg = build_sim_config({"pd.Kpz": "25", "smc.boundary_layer": "0.1",
                                "smc.k": "1,1,1,1,1,1",
                                "mpc.move_att": "0.001"})
        assert cfg.pd_gains.Kpz == 25.0
        assert cfg.smc_gains.boundary_layer == 0.1
        assert cfg.mpc_move_att == 0.001

    def test_move_pos_spelled_out_is_the_default_run(self):
        """The tilt-equalised weights, stated in full, change no row."""
        g = VehicleParams().g
        triple = ", ".join("%.17g" % v for v in (0.4, 0.4, 0.05 / g ** 2))
        kv = {"controller": "MPC", "m_L": "0.3", "duration": "2"}
        stated = build_sim_config({**kv, "mpc.move_pos": triple})
        default = build_sim_config(kv)
        assert default.mpc_move_pos is None
        assert stated.mpc_move_pos == (0.4, 0.4, 0.05 / g ** 2)
        assert run(stated).rows.tobytes() == run(default).rows.tobytes()

    def test_smc_list_length_checked(self):
        with pytest.raises(ConfigError, match="smc.k"):
            build_sim_config({"smc.k": "1,1,1"})

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="m_L"):
            build_sim_config({"m_L": "heavy"})

    def test_sweep_key_rejected_for_single_run(self):
        with pytest.raises(ConfigError, match="sweep"):
            build_sim_config({"sweep.masses": "0.1"})


# a valid value for each key of KEYS that 0.45 does not suit; 0.45 is a
# valid value of every other key and the default of none
_VALID_VALUE = {
    "controller": "MPC", "trajectory": "hover", "dt_physics": "0.005",
    "dt_control": "0.02", "smc.k": "1,1,1,1,1,1", "smc.lam": "1,1,1,1,1,1",
    "mpc.horizon": "10", "mpc.move_pos": "1,1,1",
    "sweep.masses": "0.1, 0.2", "sweep.controllers": "MPC, PD"}


class TestKeyTable:
    @pytest.mark.parametrize("key", [
        f"{section}.{name}" if section else name
        for section, names in KEYS.items() for name in names])
    def test_each_key_accepted(self, key):
        """Each key, given alone with a valid value, changes the result."""
        build = (build_sweep_spec if key.startswith("sweep.")
                 else build_sim_config)
        assert build({key: _VALID_VALUE.get(key, "0.45")}) != build({})

    @pytest.mark.parametrize("key", ["controler", "vehicle.mass", "pd.kpz",
                                     "smc.K", "mpc.Horizon", "a.b.c",
                                     ".controller"])
    def test_misspelled_key_is_unknown(self, key):
        with pytest.raises(ConfigError,
                           match=f"^unknown key: {re.escape(key)}$"):
            build_sim_config({"m_L": "0.2", key: "1"})

    @pytest.mark.parametrize("key", ["sweep.masses", "sweep.a.b"])
    def test_sweep_key_in_single_run(self, key):
        with pytest.raises(ConfigError, match="^sweep key in a single-run "
                           f"config: {re.escape(key)}$"):
            build_sim_config({key: "0.1"})

    def test_keys_name_config_fields(self):
        """Each key sets one field, and every setting has its key."""
        owners = {"": (SimConfig, ""), "vehicle": (VehicleParams, ""),
                  "pd": (PdGains, ""), "smc": (SmcGains, ""),
                  "mpc": (SimConfig, "mpc_")}
        named = []
        for section, (owner, prefix) in owners.items():
            names = {f.name for f in fields(owner)}
            for key in KEYS[section]:
                assert prefix + key in names, (section, key)
                named.append((owner, prefix + key))
        assert sorted(KEYS) == sorted([*owners, "sweep"])
        assert len(set(named)) == len(named)
        # the fields no key names are the sections' own containers
        holders = {"params", "pd_gains", "smc_gains"}
        for owner in (SimConfig, VehicleParams, PdGains, SmcGains):
            unnamed = {f.name for f in fields(owner)
                       if (owner, f.name) not in named}
            assert unnamed == (holders if owner is SimConfig else set())

    def test_every_default_stated_is_the_default_config(self, tmp_path):
        """A file stating each key at its default builds SimConfig().

        mpc.move_pos is left out: its default is derived from vehicle.g.
        """
        cfg = SimConfig()
        owners = {"": cfg, "vehicle": cfg.params, "pd": cfg.pd_gains,
                  "smc": cfg.smc_gains}
        lines = []
        for section, names in KEYS.items():
            for name in names:
                if section == "sweep" or (section, name) == ("mpc",
                                                             "move_pos"):
                    continue
                v = (getattr(cfg, "mpc_" + name) if section == "mpc"
                     else getattr(owners[section], name))
                text = (", ".join(map(repr, v)) if isinstance(v, tuple)
                        else str(v))
                key = f"{section}.{name}" if section else name
                lines.append(f"{key} = {text}\n")
        path = tmp_path / "defaults.cfg"
        path.write_text("".join(lines))
        # every key but the sweep keys and mpc.move_pos
        assert len(lines) == sum(map(len, KEYS.values())) - 3
        assert load_config(str(path)) == SimConfig() == build_sim_config({})

    def test_first_bad_key_in_file_order_reported(self):
        kv = {"vehicle.mass": "1", "m_L": "heavy"}
        with pytest.raises(ConfigError, match="^unknown key: vehicle.mass$"):
            build_sim_config(kv)
        with pytest.raises(ConfigError, match="^m_L: expected a number"):
            build_sim_config(dict(reversed(kv.items())))


class TestSweepSpecBuild:
    def test_defaults(self):
        spec = build_sweep_spec({})
        assert spec.masses == DEFAULT_SWEEP_MASSES
        assert len(spec.masses) == 11
        assert spec.controllers == ("PD", "SMC", "MPC")

    def test_empty_masses_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            build_sweep_spec({"sweep.masses": ","})

    def test_non_increasing_rejected(self):
        with pytest.raises(ConfigError):
            build_sweep_spec({"sweep.masses": "0.3, 0.1"})
        for m in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="strictly increasing"):
                SweepSpec(masses=(0.1, m))
            with pytest.raises(ConfigError, match="strictly increasing"):
                SweepSpec(masses=(m, 0.1))

    def test_over_capacity_mass_rejected(self):
        with pytest.raises(ConfigError):
            build_sweep_spec({"sweep.masses": "0.1, 0.65"})

    def test_unknown_controller_rejected(self):
        with pytest.raises(ConfigError):
            build_sweep_spec({"sweep.controllers": "PD, LQR"})

    def test_misspelled_sweep_key_is_unknown(self):
        with pytest.raises(ConfigError, match=r"^unknown key: sweep\.mass$"):
            build_sweep_spec({"sweep.mass": "0.1"})

    def test_repeated_controller_rejected(self):
        with pytest.raises(ConfigError, match="'PD' is listed twice"):
            build_sweep_spec({"sweep.controllers": "PD, PD",
                              "sweep.masses": "0.1", "duration": "0.1"})
        with pytest.raises(ConfigError, match="'SMC' is listed twice"):
            SweepSpec(controllers=("SMC", "MPC", "SMC"))


@pytest.fixture(scope="module")
def short_log():
    cfg = SimConfig(controller="SMC", m_L=0.2, duration=3.0)
    return cfg, run(cfg)


class TestTraceRoundTrip:
    def test_columns_exact(self, tmp_path, short_log):
        cfg, log = short_log
        path = str(tmp_path / "trace.csv")
        write_trace(log, path, cfg.params)
        tr = read_trace(path)
        assert not tr.failed
        c = tr.columns
        assert np.array_equal(c["t"], log.t)
        quad_names = TRACE_COLUMNS[1:13]
        for i, name in enumerate(quad_names):
            assert np.array_equal(c[name], log.quad[:, i]), name
        assert np.array_equal(c["load_r"], log.load[:, 0])
        assert np.array_equal(c["load_s"], log.load[:, 1])
        zeta = np.array([cable_offset(r, s, cfg.params.L)
                         for r, s in log.load[:, :2]])
        assert np.array_equal(c["load_zeta"], zeta)
        for i, name in enumerate(("U1", "U2", "U3", "U4")):
            assert np.array_equal(c[name], log.u[:, i])
        for i, name in enumerate(("err_x", "err_y", "err_z")):
            assert np.array_equal(c[name], log.err[:, i])
        assert np.array_equal(c["sat_flag"].astype(int), log.sat)

    def test_read_back_as_a_simlog(self, tmp_path, short_log):
        """read_trace gives the log type a run gives, with zero load
        velocities; to_log() is that same object."""
        cfg, log = short_log
        assert log.load[:, 2:].any()
        path = str(tmp_path / "trace.csv")
        write_trace(log, path, cfg.params)
        back = read_trace(path)
        assert type(back) is SimLog
        assert back.to_log() is back
        assert back.rows.shape == log.rows.shape
        assert not back.load[:, 2:].any()
        assert (back.failed, back.failure_reason) == (False, "")
        assert list(back.columns) == list(TRACE_COLUMNS)

    def test_duplicate_run_byte_identical(self, tmp_path):
        cfg = SimConfig(controller="PD", m_L=0.15, duration=2.0)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_trace(run(cfg), str(p1), cfg.params)
        write_trace(run(cfg), str(p2), cfg.params)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("aborted", [False, True],
                             ids=["short", "aborted"])
    def test_log_layout(self, tmp_path, aborted):
        """Log rows are the trace rows: zeta, round trip, err is a view."""
        if aborted:
            bad = PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3, Kdt=1e-3)
            cfg = SimConfig(controller="PD", m_L=0.5, duration=10.0,
                            pd_gains=bad)
        else:
            cfg = SimConfig(controller="SMC", m_L=0.2, duration=3.0)
        log = run(cfg)
        assert log.failed == aborted
        r, s, zeta = (log.rows[:, TRACE_COLUMNS.index(name)].tolist()
                      for name in ("load_r", "load_s", "load_zeta"))
        assert zeta == [cable_offset(a, b, cfg.params.L)
                        for a, b in zip(r, s)]
        path = str(tmp_path / "trace.csv")
        write_trace(log, path, cfg.params)
        back = read_trace(path).to_log()
        assert back.failed == aborted
        assert back.failure_reason == log.failure_reason
        n = len(TRACE_COLUMNS)
        assert back.rows[:, :n].tobytes() == log.rows[:, :n].tobytes()
        assert not back.rows[:, n:].any()

        log.err[1, 0] = 0.125
        write_trace(log, path, cfg.params)
        assert read_trace(path).columns["err_x"][1] == 0.125

    def test_aborted_run_marker(self, tmp_path):
        bad = PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3, Kdt=1e-3)
        cfg = SimConfig(controller="PD", m_L=0.5, duration=10.0,
                        pd_gains=bad)
        log = run(cfg)
        assert log.failed
        path = str(tmp_path / "trace.csv")
        write_trace(log, path, cfg.params)
        tr = read_trace(path)
        assert tr.failed
        assert tr.failure_reason
        assert tr.to_log().failed

    @pytest.mark.parametrize("failed", [False, True],
                             ids=["complete", "aborted"])
    def test_round_trip_exact_to_the_bit(self, tmp_path, failed):
        """Edge doubles come back with the same bits, marker included."""
        edge = [-0.0, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 0.1 + 0.2, -5e-324,
                -1.7976931348623157e308]
        n = len(TRACE_COLUMNS)
        rows = np.zeros((9, LOG_WIDTH))
        rows[:, 0] = np.arange(9) * 0.01
        rows[:, 1:n - 1] = np.resize(edge, (9, n - 2))
        rows[::2, n - 1] = 1.0
        reason = "GimbalLockError at t=0.080: injected" if failed else ""
        log = SimLog(rows=rows, failed=failed, failure_reason=reason)
        path = str(tmp_path / "trace.csv")
        write_trace(log, path, VehicleParams())
        tr = read_trace(path)
        assert tr.rows.tobytes() == rows.tobytes()
        assert (tr.failed, tr.failure_reason) == (failed, reason)

    def test_blank_and_whitespace_lines_skipped(self, tmp_path):
        mid = "0," * 25
        path = tmp_path / "trace.csv"
        path.write_text(HEADER + "0," + mid + "0\n \t \n\n"
                        + "0.01," + mid + "1\n   \n", encoding="utf-8")
        tr = read_trace(str(path))
        assert tr.rows.shape == (2, LOG_WIDTH)
        assert tr.columns["t"].tolist() == [0.0, 0.01]
        assert tr.columns["sat_flag"].tolist() == [0.0, 1.0]

    def test_read_peak_memory_bounded(self, tmp_path):
        """Reading a 75 s trace allocates under 3x its parsed rows."""
        rng = np.random.default_rng(0)
        n = len(TRACE_COLUMNS)
        rows = np.zeros((7501, LOG_WIDTH))
        rows[:, 0] = np.arange(7501) * 0.01
        rows[:, 1:n - 1] = rng.standard_normal((7501, n - 2))
        path = str(tmp_path / "trace.csv")
        write_trace(SimLog(rows=rows), path, VehicleParams())
        tracemalloc.start()
        try:
            tr = read_trace(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.rows.tobytes() == rows.tobytes()
        assert peak <= 3 * tr.rows.nbytes, (peak, tr.rows.nbytes)

    @pytest.mark.parametrize("n_rows, failed", [
        (1, False), (255, False), (256, False), (257, False), (513, False),
        (257, True)])
    def test_block_edges_match_per_row_format(self, tmp_path, n_rows,
                                              failed):
        """Full, short and lone blocks give the per-row format's bytes."""
        rng = np.random.default_rng(n_rows)
        n = len(TRACE_COLUMNS)
        rows = np.zeros((n_rows, LOG_WIDTH))
        rows[:, 0] = np.arange(n_rows) * 0.01
        rows[:, 1:n - 1] = rng.standard_normal((n_rows, n - 2))
        rows[:, n - 1] = rng.integers(0, 2, n_rows)
        reason = "GimbalLockError at t=2.560: injected" if failed else ""
        path = tmp_path / "trace.csv"
        write_trace(SimLog(rows=rows, failed=failed, failure_reason=reason),
                    str(path), VehicleParams())
        want = (HEADER
                + "".join(cli._TRACE_ROW % tuple(row)
                          for row in rows[:, :n].tolist())
                + (f"# aborted: {reason}\n" if failed else ""))
        assert path.read_bytes() == want.encode()
        tr = read_trace(str(path))
        assert tr.rows.tobytes() == rows.tobytes()
        assert (tr.failed, tr.failure_reason) == (failed, reason)


def _interrupt(*_):
    raise KeyboardInterrupt


class _CutRows:
    """A log's rows that raise KeyboardInterrupt at the second slice, so
    write_trace is cut after its first 256-row block."""

    def __init__(self, rows):
        self.rows, self.slices = rows, 0

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, key):
        self.slices += 1
        if self.slices > 1:
            raise KeyboardInterrupt
        return self.rows[key]


class TestWholeFiles:
    """An output file is written whole or not at all."""

    @pytest.mark.parametrize("name", ["trace.csv", "metrics.csv",
                                      "sweep.csv"])
    def test_cut_write_leaves_no_file(self, tmp_path, monkeypatch, name):
        log = run(SimConfig(duration=5.0))       # 501 rows: two blocks
        path = str(tmp_path / name)
        write = {
            "trace.csv": lambda: write_trace(log, path, VehicleParams()),
            "metrics.csv": lambda: cli.write_metrics(log, path, "square"),
            "sweep.csv": lambda: write_sweep(
                [("PD", 0.3, 0.5, 1.0, 2.0, 3.0, False, "")], path)}[name]
        rows = log.rows
        if name == "trace.csv":
            log.rows = _CutRows(rows)
        else:
            # the row after the header is cut
            monkeypatch.setattr(cli, "_cell", _interrupt)
        with pytest.raises(KeyboardInterrupt):
            write()
        assert os.listdir(tmp_path) == []
        # uncut, the same write leaves the one file
        log.rows = rows
        monkeypatch.undo()
        write()
        assert os.listdir(tmp_path) == [name]


def _data_row(t, field="0"):
    """A trace row at time t whose middle field is `field`."""
    return f"{t}," + "0," * 12 + field + ",0" * 13


def _write_lines(tmp_path, lines):
    path = tmp_path / "trace.csv"
    path.write_text(HEADER + "".join(ln + "\n" for ln in lines),
                    encoding="utf-8")
    return str(path)


class TestTraceLineAttribution:
    """A refused row is named by its own file line, from one open."""

    @pytest.mark.parametrize("filler", [[], ["", "# note", " \t"]],
                             ids=["dense", "blank-and-comment"])
    @pytest.mark.parametrize("n_rows, bad", [
        (3, 1), (300, 256), (300, 257), (3000, 3000)])
    def test_refused_field_names_its_line(self, tmp_path, n_rows, bad,
                                          filler):
        lines = list(filler)
        for i in range(1, n_rows + 1):
            if i == bad:
                lines += filler
                want = len(lines) + 2    # after the header, 1-based
            lines.append(_data_row(i, "zero" if i == bad else "0"))
        path = _write_lines(tmp_path, lines)
        with pytest.raises(TraceError) as exc:
            read_trace(path)
        assert str(exc.value) == f"{path}:{want}: non-numeric field"

    @pytest.mark.parametrize("third, fourth, reason", [
        (_data_row(3, "1_0"), "4" + ",0" * 25, ":4: non-numeric field"),
        ("3" + ",0" * 25, _data_row(4, "1_0"),
         ":4: expected 27 fields, got 26"),
    ], ids=["bad-field-then-short-row", "short-row-then-bad-field"])
    def test_first_bad_line_wins(self, tmp_path, third, fourth, reason):
        path = _write_lines(tmp_path, [_data_row(1), _data_row(2), third,
                                       fourth, _data_row(5)])
        with pytest.raises(TraceError) as exc:
            read_trace(path)
        assert str(exc.value) == path + reason

    @pytest.mark.parametrize("refused", [False, True],
                             ids=["valid", "refused-field"])
    def test_file_opened_once(self, tmp_path, monkeypatch, refused):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        path = _write_lines(tmp_path, [_data_row(i) for i in range(1, 5)]
                            + [_data_row(5, "x" if refused else "0")])
        if refused:
            with pytest.raises(TraceError, match=r":6: non-numeric field$"):
                read_trace(path)
        else:
            assert read_trace(path).rows.shape == (5, LOG_WIDTH)
        assert opened == [path]


def _serial_pool(monkeypatch):
    """Replace multiprocessing.Pool with one that maps in this process.

    Returns the list that each pool's requested size is appended to, so a
    test can check the size without starting worker processes.
    """
    sizes = []

    class SerialPool:
        def __init__(self, processes, initializer=None, initargs=()):
            # the initializer is not run: it would make this process
            # ignore Ctrl-C
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli.multiprocessing, "Pool", SerialPool)
    return sizes


class TestSweepCsv:
    def test_rows_sorted_and_round_trip(self, tmp_path):
        spec = SweepSpec(masses=(0.1, 0.3), controllers=("SMC", "PD"),
                         base=SimConfig(duration=2.0))
        results = run_sweep(spec, jobs=1)
        assert [(r[0], r[1]) for r in results] == [
            ("PD", 0.1), ("PD", 0.3), ("SMC", 0.1), ("SMC", 0.3)]
        path = str(tmp_path / "sweep.csv")
        write_sweep([(*r, "") for r in results], path)
        rows = read_sweep(path)
        assert len(rows) == 4
        assert rows[0]["controller"] == "PD"
        assert rows[0]["m_L"] == 0.1
        assert rows[0]["e_max"] == results[0][2]
        assert all(row["failure_reason"] == "" for row in rows)

    def test_failure_reason_column(self, tmp_path):
        """The reason trails the seven numeric columns, quoted by csv."""
        results = [("PD", 0.1, 0.5, 1.0, 2.0, 3.0, True),
                   ("PD", 0.2, math.nan, math.nan, math.nan, math.nan, True),
                   ("SMC", 0.1, 0.25, 1.5, 2.5, 3.5, False)]
        reasons = ['GimbalLockError at t=0.140: attitude (phi=0.0, '
                   'theta="-1.7")', "RuntimeError: two\nlines", ""]
        path = tmp_path / "sweep.csv"
        write_sweep([(*r, why) for r, why in zip(results, reasons)],
                    str(path))
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        assert lines[1] == ("PD,0.10000000000000001,0.5,1,2,3,1,"
                            '"GimbalLockError at t=0.140: attitude '
                            '(phi=0.0, theta=""-1.7"")"')
        assert lines[-2] == "SMC,0.10000000000000001,0.25,1.5,2.5,3.5,0,"
        rows = read_sweep(str(path))
        assert [r["failure_reason"] for r in rows] == reasons
        assert [r["failed"] for r in rows] == [True, True, False]
        assert math.isnan(rows[1]["e_max"])
        # every field comes back, the flagged NaN row too
        assert [list(r) for r in rows] == [list(cli.SWEEP_COLUMNS)] * 3
        np.testing.assert_equal(
            [tuple(r.values()) for r in rows],
            [(*row, reason) for row, reason in zip(results, reasons)])

    def test_failed_runs_flagged_and_sweep_continues(self, tmp_path):
        bad = PdGains(Kpp=5e4, Kpt=5e4, Kdp=1e-3, Kdt=1e-3)
        spec = SweepSpec(masses=(0.2,), controllers=("PD", "SMC"),
                         base=SimConfig(duration=5.0, pd_gains=bad))
        results = run_sweep(spec, jobs=1)
        by_ctrl = {r[0]: r for r in results}
        assert by_ctrl["PD"][6] is True or by_ctrl["PD"][6] == 1
        assert not by_ctrl["SMC"][6]

    def test_parallel_matches_serial(self):
        spec = SweepSpec(masses=(0.1, 0.2), controllers=("PD",),
                         base=SimConfig(duration=2.0))
        assert run_sweep(spec, jobs=1) == run_sweep(spec, jobs=2)

    @pytest.mark.parametrize("cpus, jobs, processes", [
        (3, None, 3), (3, 2, 2), (3, 64, 3), (8, 64, 4), (3, 1, None)])
    def test_pool_capped_at_usable_cpus_and_cases(self, monkeypatch, cpus,
                                                  jobs, processes):
        sizes = _serial_pool(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        spec = SweepSpec(masses=(0.1, 0.2), controllers=("PD", "SMC"),
                         base=SimConfig(duration=0.1))
        assert len(run_sweep(spec, jobs=jobs)) == 4
        assert sizes == ([] if processes is None else [processes])

    def test_pool_falls_back_to_cpu_count(self, monkeypatch):
        sizes = _serial_pool(monkeypatch)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = SweepSpec(masses=(0.1, 0.2, 0.3), controllers=("PD",),
                         base=SimConfig(duration=0.1))
        run_sweep(spec)
        assert sizes == [2]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_a_config_error(self, tmp_path, monkeypatch,
                                              capsys, jobs):
        sizes = _serial_pool(monkeypatch)
        with pytest.raises(ConfigError, match="--jobs must be at least 1"):
            run_sweep(SweepSpec(), jobs=jobs)
        cfg = tmp_path / "sw.cfg"
        cfg.write_text("duration = 0.1\nsweep.masses = 0.1\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--jobs", str(jobs)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --jobs must be at least 1, got {jobs}\n")
        assert not out.exists()
        assert sizes == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_case_becomes_flagged_row(self, tmp_path, monkeypatch,
                                              capfd, jobs):
        spec = SweepSpec(masses=(0.1, 0.2, 0.3), controllers=("PD",),
                         base=SimConfig(duration=1.0))
        clean = run_sweep(spec, jobs=1)
        real_run = cli.run

        def run_or_raise(cfg):
            if cfg.m_L == 0.2:
                raise RuntimeError("injected failure")
            return real_run(cfg)

        # forked pool workers inherit the patched module attribute
        monkeypatch.setattr(cli, "run", run_or_raise)
        cfg = tmp_path / "sw.cfg"
        cfg.write_text("duration = 1.0\nsweep.masses = 0.1, 0.2, 0.3\n"
                       "sweep.controllers = PD\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--jobs", str(jobs)]) == EXIT_OK
        assert "RuntimeError: injected failure" in capfd.readouterr().err
        rows = read_sweep(str(out / "sweep.csv"))
        assert [(r["controller"], r["m_L"]) for r in rows] == [
            ("PD", 0.1), ("PD", 0.2), ("PD", 0.3)]
        bad = rows[1]
        assert bad["failed"]
        assert [r["failure_reason"] for r in rows] == [
            "", "RuntimeError: injected failure", ""]
        assert all(math.isnan(bad[k])
                   for k in ("e_max", "phi_max", "theta_max", "t_smax"))
        for row, ref in ((rows[0], clean[0]), (rows[2], clean[2])):
            assert (row["controller"], row["m_L"], row["e_max"],
                    row["phi_max"], row["theta_max"], row["t_smax"],
                    row["failed"]) == ref


HEADER = ",".join(TRACE_COLUMNS) + "\n"


_METRICS_HEADER = (b"e_max,err_x_max,err_y_max,phi_max,theta_max,t_smax,"
                   b"stage_times,arrival_time,saturation_count,failed,"
                   b"failure_reason\r\n")

# config, simulate exit code, metrics.csv bytes, analyze stdout
GOLDEN_RUNS = {
    "smc-2s": (
        "controller = SMC\nm_L = 0.1\nduration = 2.0\n", EXIT_OK,
        _METRICS_HEADER
        + b"0.023656354955662665,0.023656354955662665,0,0,"
          b"0.29519581043943716,0,0;0;0;0,nan,0,0,\r\n",
        "e_max = 0.023656\nerr_x_max = 0.023656\nerr_y_max = 0.000000\n"
        "phi_max = 0.000000\ntheta_max = 0.295196\nt_smax = 0.000000\n"
        "stage_times = 0.000000;0.000000;0.000000;0.000000\n"
        "arrival_time = nan\nsaturation_count = 0\nfailed = 0\n"),
    "pd-abort": (
        "controller = PD\nm_L = 0.5\npd.Kpp = 5e4\npd.Kpt = 5e4\n"
        "pd.Kdp = 1e-3\npd.Kdt = 1e-3\n", EXIT_ABORT,
        _METRICS_HEADER
        + b"0.00049234256972846601,0.00049234256972846601,0,0,"
          b"60.738955408908346,0,0;0;0;0,nan,2,1,\"GimbalLockError at "
          b"t=0.140: attitude out of range (phi=0.000, theta=-1.734)\"\r\n",
        "e_max = 0.000492\nerr_x_max = 0.000492\nerr_y_max = 0.000000\n"
        "phi_max = 0.000000\ntheta_max = 60.738955\nt_smax = 0.000000\n"
        "stage_times = 0.000000;0.000000;0.000000;0.000000\n"
        "arrival_time = nan\nsaturation_count = 2\nfailed = 1\n"),
}


class TestCliExitCodes:
    def test_simulate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("controller = PD\nm_L = 0.1\nduration = 2.0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "metrics.csv").exists()

    def test_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("controller = PID\n")
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("controller = LQR", "controller must be one of ('PD', 'SMC', "
                             "'MPC'), got 'LQR'"),
        ("trajectory = helix", "trajectory must be one of ('square', "
                               "'single_leg', 'hover'), got 'helix'")])
    def test_unknown_name_named_once(self, tmp_path, capsys, line, message):
        # SimConfig holds the one rule for both names
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_byte_order_mark_config_simulates(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" and Windows Notepad start a file with a BOM
        text = "controller = SMC\nm_L = 0.1\nduration = 1.0\n"
        traces = []
        for name, data in (("plain", text.encode()),
                           ("bom", text.encode("utf-8-sig"))):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == EXIT_OK
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

    def test_analyze_byte_order_mark_trace(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("controller = PD\nduration = 2.0\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        trace = out / "trace.csv"
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + trace.read_bytes())
        printed = []
        for path in (trace, bom):
            capsys.readouterr()
            assert main(["analyze", "--trace", str(path)]) == EXIT_OK
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("line", ["duration = 0.005", "duration = 76",
                                      "mpc.horizon = 0", "mpc.move_att = -1",
                                      "mpc.move_pos = 0.4, 0.4, 0",
                                      "vehicle.U1_max = nan", "m_L = nan",
                                      "vehicle.L = nan", "vehicle.g = inf",
                                      "vehicle.m_q = inf", "pd.Kpx = nan",
                                      "duration = inf",
                                      "mpc.horizon = 1000000",
                                      "trajectory = hover\nduration = 1e9",
                                      "duration = 1e308",
                                      "dt_physics = 5e-324",
                                      "dt_physics = 1e-300",
                                      "vehicle.I_x = 1e-300"])
    def test_invalid_run_rejected_before_running(self, tmp_path, capsys,
                                                 line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"controller = MPC\n{line}\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config error:" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["simulate", "sweep"])
    def test_non_utf8_config_rejected_before_running(self, tmp_path, capsys,
                                                     verb):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"controller = MPC\nm_L = 0.3\xff\n")
        out = tmp_path / "out"
        code = main([verb, "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ")
        assert str(cfg) in err and "not UTF-8" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_abort_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("controller = PD\nm_L = 0.5\nduration = 10.0\n"
                       "pd.Kpp = 50000\npd.Kpt = 50000\n"
                       "pd.Kdp = 0.001\npd.Kdt = 0.001\n")
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_ABORT
        # partial trace still written, with the abort marker
        text = (out / "trace.csv").read_text()
        assert "# aborted:" in text

    def test_interrupt_exit_code(self, tmp_path, capsys, monkeypatch):
        def interrupted(cfg):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "run", interrupted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("controller = PD\nduration = 2.0\n")
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--out", str(out)]
        # main lets the interrupt through; the command ends it in one line
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        capsys.readouterr()
        assert cli.console_main(argv) == EXIT_INTERRUPT
        assert capsys.readouterr().err == "interrupted\n"
        assert not out.exists()

    def test_io_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("controller = PD\nduration = 1.0\n")
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(blocker / "sub")])
        assert code == EXIT_IO

    def test_critical_mass_bad_input(self, capsys):
        ok = ["--u1max", "14.72", "--accel", "0.1"]
        for flags in (["--u1max", "-1", "--accel", "0.1"],
                      ["--u1max", "nan", "--accel", "0.1"],
                      ["--u1max", "inf", "--accel", "0.1"],
                      ["--u1max", "14.72", "--accel", "nan"],
                      ["--u1max", "14.72", "--accel", "inf"],
                      ok + ["--g", "0"], ok + ["--g", "nan"],
                      ok + ["--m-q", "-0.005"], ok + ["--m-q", "inf"]):
            assert main(["critical-mass", *flags]) == EXIT_CONFIG, flags
            err = capsys.readouterr().err
            assert err.startswith("config error: ")
            assert "Traceback" not in err

    def test_critical_mass_output(self, capsys):
        assert main(["critical-mass", "--u1max", "14.72",
                     "--accel", "0.032"]) == EXIT_OK
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if ln.startswith("m_cm")][0]
        value = float(line.split("=")[1].split("kg")[0])
        assert abs(value - 0.5) < 0.005
        assert "(feasible)" in line

    def test_analyze_round_trip(self, tmp_path, capsys):
        """metrics.csv and analyze stdout keep their recorded bytes."""
        for name, (config, code, metrics, analyzed) in GOLDEN_RUNS.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(config)
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(out)]) == code
            capsys.readouterr()
            assert (out / "metrics.csv").read_bytes() == metrics
            assert main(["analyze", "--trace",
                         str(out / "trace.csv")]) == EXIT_OK
            assert capsys.readouterr().out == analyzed

    def test_subnormal_time_step_simulates(self, tmp_path, capsys):
        # DWELL_S / dt is inf, past any row count
        cfg = tmp_path / "run.cfg"
        cfg.write_text("controller = PD\ndt_physics = 5e-324\n"
                       "dt_control = 5e-324\nduration = 1e-323\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        header, row = (out / "metrics.csv").read_text().splitlines()
        metrics = dict(zip(header.split(","), row.split(",")))
        for key in ("e_max", "phi_max", "theta_max", "t_smax"):
            assert math.isfinite(float(metrics[key]))
        assert metrics["stage_times"] == "0;0;0;0"

    def test_analyze_subnormal_time_step(self, tmp_path, capsys):
        # phi leaves the band after the first transition (15 s) and is
        # back in it one row later, but no run of rows lasts DWELL_S / dt
        path = tmp_path / "trace.csv"
        path.write_text(HEADER + "".join(
            ",".join([t] + ["0"] * 6 + [phi] + ["0"] * 19) + "\n"
            for t, phi in (("0", "0"), ("5e-324", "0"), ("16", "0.1"),
                           ("17", "0"))))
        assert main(["analyze", "--trace", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "t_smax = 1.000000\n" in out
        assert "stage_times = 1.000000;0.000000;0.000000;0.000000\n" in out

    @pytest.mark.parametrize("text, reason", [
        ("t,x,y\n0,0,0\n", "unexpected trace header"),
        (HEADER, "no data rows"),
        (HEADER + "0," * 10 + "0\n", "expected 27 fields, got 11"),
        (HEADER + "0," * 26 + "zero\n", "non-numeric field"),
        (HEADER + "nan," + "0," * 25 + "0\n", "non-finite field"),
        (HEADER + "0," * 26 + "1e300\n", "sat_flag must be 0 or 1"),
        (HEADER + ("0," * 26 + "0\n") * 2, "t must increase"),
        (b"t,x\xff\n", "not UTF-8"),
        ((HEADER + "0," * 26 + "0\n").encode() + b"\x80,0\n", "not UTF-8"),
        (HEADER + ("0," * 25 + "0\n") * 2, ":2: expected 27 fields, got 26"),
        (HEADER + "0," * 26 + "0#x\n", ":2: non-numeric field"),
        (HEADER + "0," * 26 + "0\n" + "1_5," + "0," * 25 + "0\n",
         ":3: non-numeric field"),
        (HEADER + "\u0661\u0662," + "0," * 25 + "0\n",
         ":2: non-numeric field"),
    ], ids=["header", "no-rows", "short-row", "non-numeric", "non-finite",
            "sat-flag", "t-not-rising", "non-utf8-header", "non-utf8-row",
            "every-row-26-fields", "comment-after-field", "underscore-digits",
            "non-ascii-digits"])
    def test_analyze_malformed_trace(self, tmp_path, capsys, text, reason):
        path = tmp_path / "trace.csv"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code = main(["analyze", "--trace", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err.startswith("trace error: ")
        assert str(path) in err and reason in err
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_sweep_verb(self, tmp_path, capsys):
        cfg = tmp_path / "sw.cfg"
        cfg.write_text("duration = 2.0\nsweep.masses = 0.1, 0.2\n"
                       "sweep.controllers = PD\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == EXIT_OK
        rows = read_sweep(str(out / "sweep.csv"))
        assert len(rows) == 2

    def _sweep_failed_flags(self, tmp_path, text):
        cfg = tmp_path / "sw.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"]) == EXIT_OK
        return [(r["controller"], r["failed"])
                for r in read_sweep(str(out / "sweep.csv"))]

    def test_sweep_case_keeps_its_own_config_error(self, tmp_path, capsys):
        # under a subnormal quadrotor mass the MPC cannot take its first
        # step; its row's reason is that error, not an empty log
        flags = self._sweep_failed_flags(
            tmp_path, "vehicle.m_q = 5e-324\nsweep.controllers = PD, MPC\n"
            "sweep.masses = 0.1\nduration = 0.1\n")
        assert flags == [("PD", True), ("MPC", True)]
        err = capsys.readouterr().err
        assert ("sweep case MPC m_L=0.1 failed: ConfigError: MPC controller "
                "cannot be built from this config: FloatingPointError") in err
        assert "empty log" not in err
        pd, mpc = read_sweep(str(tmp_path / "out" / "sweep.csv"))
        assert pd["failure_reason"].startswith("ZeroDivisionError at t=")
        assert mpc["failure_reason"].startswith(
            "ConfigError: MPC controller cannot be built")

    def test_unswept_base_controller_does_not_stop_sweep(self, tmp_path,
                                                         capsys):
        flags = self._sweep_failed_flags(
            tmp_path, "controller = MPC\nvehicle.m_q = 5e-324\n"
            "sweep.controllers = PD\nsweep.masses = 0.1\n"
            "duration = 0.1\n")
        assert flags == [("PD", True)]
        assert "config error" not in capsys.readouterr().err


NUMERIC_KEYS = (
    ("m_L", "duration", "dt_physics", "dt_control")
    + tuple("vehicle." + f.name for f in fields(VehicleParams))
    + tuple("pd." + f.name for f in fields(PdGains))
    + ("smc.k", "smc.lam", "smc.boundary_layer",
       "mpc.horizon", "mpc.move_pos", "mpc.move_att"))

_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "NaN", "0",
                     "-0", "-1", "1e-300", "1e300", "1e309", "0.1", "0.01",
                     "75", "76", "1e308", "5e-324"]))
_value = st.one_of(
    _number,
    st.lists(_number, min_size=1, max_size=7).map(", ".join),
    st.sampled_from(["abc", "1e", "0x10", "1_0", "--1", "1,", ",", "()",
                     "1 2", "True"]))


def _fits_the_test_budget(key, value):
    """Leave out values that are accepted but make one run slow.

    A drawn duration runs at most 0.1 s, a drawn dt_physics takes at most
    100 sub-steps per tick, and a drawn MPC horizon stays small (its
    prediction matrices grow with the square of the horizon).  Values
    past the config's size caps are rejected at once, so they stay in.
    """
    try:
        v = float(value)
    except ValueError:
        return True
    if not math.isfinite(v):
        return True
    if key == "duration":
        return v <= 0.1 or v > 75.0
    if key == "dt_physics":
        return not 0.01 / MAX_SUBSTEPS <= v < 1e-4
    if key == "mpc.horizon":
        return v <= 50 or v > MAX_MPC_HORIZON
    return True


@settings(max_examples=60, deadline=None)
@given(controller=st.sampled_from(CONTROLLERS),
       key=st.sampled_from(NUMERIC_KEYS), value=_value)
def test_simulate_config_values_never_traceback(controller, key, value):
    """Any value of a known numeric key ends in a documented exit code."""
    assume(_fits_the_test_budget(key, value))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"controller = {controller}\nduration = 0.1\n"
                     f"{key} = {value}\n")
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", cfg, "--out", out])
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_ABORT, EXIT_IO)
        assert "Traceback" not in err.getvalue()
        if code == EXIT_CONFIG:
            assert not os.path.exists(out)


def _simulate_lines(lines):
    """Run simulate on a config of these lines: exit code, stderr, out dir."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", cfg, "--out", out])
        return code, err.getvalue(), os.path.exists(out)


def test_controller_arithmetic_errors_end_in_exit_codes(tmp_path,
                                                       monkeypatch, capsys):
    """A controller arithmetic error never tracebacks.

    On the run's first step (tick 0) it is a config error with no output: the MPC's gain product
    meets an infinite acceleration under a subnormal quadrotor mass, and
    the SMC's tilt demand is NaN under a subnormal g.  On a later tick
    the run aborts and keeps the rows logged so far.
    """
    base = ["duration = 0.1"]
    for controller, key in (("MPC", "vehicle.m_q"), ("SMC", "vehicle.g")):
        code, err, made_out = _simulate_lines(
            base + [f"controller = {controller}", f"{key} = 5e-324"])
        assert (code, made_out) == (EXIT_CONFIG, False)
        assert err.startswith(f"config error: {controller} controller "
                              "cannot be built")
        assert "Traceback" not in err

    # no config found reaches a later tick, so the step raises on its
    # second call, which is tick 1 of the run's only controller
    step = SmcController.step

    def second_step_raises(self, s, ref):
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == 2:
            raise ZeroDivisionError("float division by zero")
        return step(self, s, ref)

    monkeypatch.setattr(SmcController, "step", second_step_raises)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("controller = SMC\nduration = 0.1\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_ABORT
    assert "ZeroDivisionError in the SMC controller at t=0.010" in err
    assert "Traceback" not in err
    trace = read_trace(str(out / "trace.csv"))
    assert trace.failed and trace.rows.shape == (1, LOG_WIDTH)
    assert trace.failure_reason.startswith("ZeroDivisionError in the SMC "
                                           "controller at t=0.010")


KNOWN_KEYS = NUMERIC_KEYS + ("controller", "trajectory")

_unknown_key = st.builds(
    "{}{}".format,
    st.sampled_from(["", "vehicle.", "pd.", "smc.", "mpc.", "sweep.",
                     "x."]),
    st.text("abcdefgKLMpxyz_0123456789.", min_size=1, max_size=12),
).filter(lambda key: key not in KNOWN_KEYS)


@settings(max_examples=60, deadline=None)
@given(controller=st.sampled_from(CONTROLLERS), data=st.data())
def test_unknown_and_repeated_keys_never_traceback(controller, data):
    """An unknown key exits 2; of a repeated key only the last line counts.

    A repeated key ends exactly as a config with its last line alone.
    """
    base = [f"controller = {controller}", "duration = 0.1"]
    if data.draw(st.booleans(), label="unknown"):
        key = data.draw(_unknown_key, label="key")
        lines = base + [f"{key} = {data.draw(_value, label='value')}"]
        alone = None
    else:
        key = data.draw(st.sampled_from(KNOWN_KEYS), label="key")
        values = data.draw(st.lists(_value, min_size=2, max_size=3),
                           label="values")
        assume(_fits_the_test_budget(key, values[-1]))
        lines = base + [f"{key} = {v}" for v in values]
        alone = base + [f"{key} = {values[-1]}"]
    code, err, made_out = _simulate_lines(lines)
    assert "Traceback" not in err
    if alone is None:
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ")
    else:
        assert (code, err) == _simulate_lines(alone)[:2]
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_ABORT)
    if code == EXIT_CONFIG:
        assert not made_out


@functools.lru_cache(maxsize=None)
def _short_trace_bytes():
    """A valid 11-row trace file, as bytes."""
    cfg = SimConfig(controller="PD", duration=0.1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace(run(cfg), path, cfg.params)
        with open(path, "rb") as fh:
            return fh.read()


def _edit_trace(data, text):
    """One drawn corruption of trace bytes."""
    kind = data.draw(st.sampled_from(["truncate", "swap-rows", "swap-fields",
                                      "non-finite", "non-utf8", "aborted"]))
    if kind == "truncate":
        return text[:data.draw(st.integers(0, len(text)))]
    if kind == "non-utf8":
        k = data.draw(st.integers(0, len(text)))
        byte = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"]))
        return text[:k] + byte + text[k:]
    if kind == "aborted":
        return text + b"# aborted: TautCableError at t=0.050: injected\n"
    lines = text.split(b"\n")
    row = data.draw(st.integers(0, len(lines) - 1))
    if kind == "swap-rows":
        other = data.draw(st.integers(0, len(lines) - 1))
        lines[row], lines[other] = lines[other], lines[row]
        return b"\n".join(lines)
    fields = lines[row].split(b",")
    i = data.draw(st.integers(0, len(fields) - 1))
    if kind == "swap-fields":
        j = data.draw(st.integers(0, len(fields) - 1))
        fields[i], fields[j] = fields[j], fields[i]
    else:
        fields[i] = data.draw(st.sampled_from(
            [b"nan", b"-nan", b"inf", b"-inf", b"NaN", b"1e999"]))
    lines[row] = b",".join(fields)
    return b"\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_edits=st.integers(1, 3),
       trajectory=st.sampled_from(["square", "single_leg", "hover"]))
def test_analyze_edited_traces_never_traceback(data, n_edits, trajectory):
    """Any corruption of a valid trace is analysed or rejected (exit 4)."""
    text = _short_trace_bytes()
    for _ in range(n_edits):
        text = _edit_trace(data, text)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--trace", path,
                         "--trajectory", trajectory])
    assert code in (EXIT_OK, EXIT_IO)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        assert "e_max = " in out.getvalue()
    else:
        assert err.getvalue().startswith("trace error: ")


def test_console_script_installed():
    """The console script declared in pyproject.toml runs critical-mass.

    The declared entry point is always run in a child interpreter the way
    the generated wrapper runs it (import the module, then
    ``sys.exit(func())``), so the check needs no install.  An installed
    ``slungsim`` on PATH is run as well.
    """
    tomllib = pytest.importorskip("tomllib")
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["slungsim"]
    module, func = target.split(":")
    wrapper = f"import sys\nfrom {module} import {func}\nsys.exit({func}())"

    env = dict(os.environ)
    pkg_parent = str(pathlib.Path(slungsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    args = ["critical-mass", "--u1max", "14.72", "--accel", "0.032"]
    commands = [[sys.executable, "-c", wrapper, *args]]
    installed = shutil.which("slungsim")
    if installed:
        commands.append([installed, *args])
    for cmd in commands:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "m_cm" in proc.stdout


def _children(pid):
    path = f"/proc/{pid}/task/{pid}/children"
    with open(path, encoding="ascii") as fh:
        return [int(c) for c in fh.read().split()]


def _ignores_sigint(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        mask = next(line for line in fh if line.startswith("SigIgn:"))
    return bool(int(mask.split()[1], 16) & (1 << (signal.SIGINT - 1)))


def test_ctrl_c_ends_a_parallel_sweep_in_one_line(tmp_path):
    """Ctrl-C, sent to the process group as a terminal sends it, stops the
    declared entry point's `sweep --jobs 2`: exit 130, `interrupted` alone
    on stderr, no output directory and no worker left.

    The signal goes out once both pool workers (forked children of the
    command) exist and ignore SIGINT, which is polled for in /proc.
    """
    tomllib = pytest.importorskip("tomllib")
    me = os.getpid()
    if not os.path.exists(f"/proc/{me}/task/{me}/children"):
        pytest.skip("no /proc/<pid>/task/<pid>/children on this system")
    if cli._usable_cpus() < 2:
        pytest.skip("a sweep runs in this process on fewer than 2 CPUs")
    root = pathlib.Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        module, func = tomllib.load(fh)["project"]["scripts"][
            "slungsim"].split(":")
    wrapper = f"import sys\nfrom {module} import {func}\nsys.exit({func}())"
    env = dict(os.environ)
    pkg_parent = str(pathlib.Path(slungsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p)
    # 300 runs of 75 s (100 masses, three controllers) on two workers
    # outlast the wait for them even if a run became ten times cheaper;
    # the sweep is interrupted once they are ready, so its length costs
    # the test nothing
    cfg = tmp_path / "sw.cfg"
    masses = ", ".join(f"{0.005 * i:.3f}" for i in range(1, 101))
    cfg.write_text(f"sweep.masses = {masses}\n")
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-c", wrapper, "sweep", "--config", str(cfg),
         "--out", str(out), "--jobs", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True)
    try:
        deadline = time.monotonic() + 60.0
        while True:
            assert proc.poll() is None and time.monotonic() < deadline
            try:
                workers = _children(proc.pid)
                if len(workers) == 2 and all(map(_ignores_sigint, workers)):
                    break
            except OSError:     # a process ended between two reads
                pass
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == EXIT_INTERRUPT
    assert err == "interrupted\n"
    assert not out.exists()
    assert not [w for w in workers if os.path.exists(f"/proc/{w}")]
